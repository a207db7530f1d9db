package orientd

import (
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
)

// overreach declares the default radius 1 but reports 3-hop influence
// sets, so under the failover wrapper (radius 2) every move escapes
// its declared ball and the parallel stepper's wave mode must refuse
// it with an under-declared-radius error.
type overreach struct {
	g *graph.Graph
	x []byte
}

func (o *overreach) Name() string                            { return "overreach" }
func (o *overreach) Graph() *graph.Graph                     { return o.g }
func (o *overreach) Legitimate() bool                        { return false }
func (o *overreach) BindRootAuthority(program.RootAuthority) {}

func (o *overreach) Enabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	if o.x[v] == 0 {
		buf = append(buf, 0)
	}
	return buf
}

func (o *overreach) Execute(v graph.NodeID, a program.ActionID) bool {
	if o.x[v] != 0 {
		return false
	}
	o.x[v] = 1
	return true
}

func (o *overreach) Influence(v graph.NodeID, a program.ActionID, buf []graph.NodeID) []graph.NodeID {
	return program.InfluenceWalk(o.g, v, 3, buf)
}

// TestStepperErrorIsLoud: once the parallel stepper's Step fails, the
// status verb carries the error and the smoke scenario fails on it at
// once instead of waiting out its convergence deadline.
func TestStepperErrorIsLoud(t *testing.T) {
	g := graph.Ring(12)
	fp := failover.New(g, &overreach{g: g, x: make([]byte, g.N())}, 0)
	// Four shards of three nodes: every radius-2 ball crosses a shard
	// boundary, so every move runs through the wave path.
	ps := program.NewParallelSystem(fp, program.ParallelConfig{Workers: 4, Seed: 1, FrontierWaves: true})
	if ps.FrontierSize() != g.N() {
		t.Fatalf("expected an all-frontier split, got %d/%d", ps.FrontierSize(), g.N())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		cfg:    Config{GraphSpec: "ring:12", Workers: 4},
		g:      g,
		fp:     fp,
		eng:    &stepperHost{ps: ps, fp: fp, g: g, rng: rand.New(rand.NewSource(1))},
		ln:     ln,
		start:  time.Now(),
		closed: make(chan struct{}),
	}
	start := time.Now()
	err = smoke(srv, SmokeConfig{Converge: 30 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "under-declared") {
		t.Fatalf("smoke returned %v, want the stepper's under-declared-radius error", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("smoke took %v to notice the stopped engine", d)
	}
	if st := srv.status(); !strings.Contains(st.Error, "under-declared") {
		t.Fatalf("status error = %q, want the step error", st.Error)
	}
}
