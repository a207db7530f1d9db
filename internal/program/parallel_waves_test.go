package program_test

// Wave-mode differential suite: with ParallelConfig.FrontierWaves the
// boundary pass fires in batched concurrent waves whose radius-R balls
// are pairwise disjoint. Everything the serial boundary pass promised
// must survive: every execution replays byte-identically on the serial
// shadow oracle, equal seeds give equal traces, churn recomputes the
// cached wave schedule with the same locality discipline as the
// frontier classification, and a protocol that under-declares its
// locality radius is *detected* (a breach error), not absorbed. The
// -race CI matrix runs this file at GOMAXPROCS 2 and 8 — the wave
// worker pool is a new race surface on top of phase A's.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"netorient/internal/graph"
	"netorient/internal/program"
)

func waveTopologies(t *testing.T) map[string]func() *graph.Graph {
	build := func(spec string) func() *graph.Graph {
		return func() *graph.Graph {
			g, err := graph.Named(spec)
			if err != nil {
				t.Fatalf("graph %q: %v", spec, err)
			}
			return g
		}
	}
	return map[string]func() *graph.Graph{
		"grid:6x6":     build("grid:6x6"),
		"gnp:24:0.2:7": build("gnp:24:0.2:7"),
	}
}

// TestParallelWaveSerialOracle is the wave-mode differential
// acceptance suite: 4 protocol stacks × grid/gnp × {1,2,4,8} workers,
// each run to legitimacy with FrontierWaves on and replayed
// move-for-move on the serial shadow oracle.
func TestParallelWaveSerialOracle(t *testing.T) {
	workerCounts := []int{1, 2, 4, 8}
	if testing.Short() {
		workerCounts = []int{2, 8}
	}
	builders := protoBuilders()
	for _, pname := range parallelProtos() {
		for gname, mkGraph := range waveTopologies(t) {
			for _, w := range workerCounts {
				t.Run(fmt.Sprintf("%s/%s/w%d", pname, gname, w), func(t *testing.T) {
					g := mkGraph()
					p, err := builders[pname](g)
					if err != nil {
						t.Fatal(err)
					}
					p.Randomize(rand.New(rand.NewSource(int64(13*w + len(gname)))))
					initial := p.Snapshot()
					ps := program.NewParallelSystem(p, program.ParallelConfig{
						Workers: w, Seed: 77, Record: true, FrontierWaves: true,
					})
					budget := int64(2000 * (g.N() + g.M()))
					res, err := ps.RunUntilLegitimate(budget)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatalf("no convergence within %d parallel steps (%d moves)", budget, res.Moves)
					}
					if ps.FrontierSize() > 0 && ps.WaveCount() == 0 {
						t.Fatalf("frontier of %d nodes but no waves scheduled", ps.FrontierSize())
					}
					if ps.WaveCount() > ps.FrontierSize() {
						t.Fatalf("wave count %d exceeds frontier size %d", ps.WaveCount(), ps.FrontierSize())
					}
					if ps.WorkUnits() < ps.SpanUnits() {
						t.Fatalf("work %d < span %d — critical path exceeds total work", ps.WorkUnits(), ps.SpanUnits())
					}
					if ps.BoundarySpanUnits() > ps.SpanUnits() {
						t.Fatalf("boundary span %d exceeds total span %d", ps.BoundarySpanUnits(), ps.SpanUnits())
					}
					shadow, err := builders[pname](g)
					if err != nil {
						t.Fatal(err)
					}
					replayOracle(t, shadow, initial, p.Snapshot(), ps.Trace())
					if int64(len(ps.Trace())) != ps.Moves() {
						t.Fatalf("trace length %d != move count %d", len(ps.Trace()), ps.Moves())
					}
				})
			}
		}
	}
}

// TestParallelWaveDeterminism pins the RNG contract in wave mode, with
// the resharding policy armed on one of the stacks: same seed + same
// worker count + same wave setting ⇒ bit-identical trace and final
// configuration, even across automatic boundary moves.
func TestParallelWaveDeterminism(t *testing.T) {
	builders := protoBuilders()
	for _, tc := range []struct {
		pname   string
		reshard program.ReshardPolicy
	}{
		{"bfstree", program.ReshardPolicy{}},
		{"dftno/dftc", program.ReshardPolicy{Imbalance: 1.1, MinInterval: 4}},
	} {
		t.Run(tc.pname, func(t *testing.T) {
			g1, err := graph.Named("grid:5x5")
			if err != nil {
				t.Fatal(err)
			}
			g2, _ := graph.Named("grid:5x5")
			p1, err := builders[tc.pname](g1)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := builders[tc.pname](g2)
			if err != nil {
				t.Fatal(err)
			}
			p1.Randomize(rand.New(rand.NewSource(6)))
			if err := p2.Restore(p1.Snapshot()); err != nil {
				t.Fatal(err)
			}
			cfg := program.ParallelConfig{
				Workers: 3, Seed: 42, Activation: 0.6, Record: true,
				FrontierWaves: true, Reshard: tc.reshard,
			}
			ps1 := program.NewParallelSystem(p1, cfg)
			ps2 := program.NewParallelSystem(p2, cfg)
			for i := 0; i < 120; i++ {
				n1, err1 := ps1.Step()
				n2, err2 := ps2.Step()
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if n1 != n2 {
					t.Fatalf("step %d: fired %d vs %d moves", i, n1, n2)
				}
			}
			if ps1.Reshards() != ps2.Reshards() {
				t.Fatalf("reshard counts diverge: %d vs %d", ps1.Reshards(), ps2.Reshards())
			}
			tr1, tr2 := ps1.Trace(), ps2.Trace()
			if len(tr1) != len(tr2) {
				t.Fatalf("trace lengths diverge: %d vs %d", len(tr1), len(tr2))
			}
			for i := range tr1 {
				if tr1[i] != tr2[i] {
					t.Fatalf("traces diverge at move %d: %v vs %v", i, tr1[i], tr2[i])
				}
			}
			if !bytes.Equal(p1.Snapshot(), p2.Snapshot()) {
				t.Fatal("equal seeds and configs produced different configurations")
			}
		})
	}
}

// TestParallelWaveChurn composes wave execution with topology
// mutations and both reshard paths (explicit and policy-driven): the
// cached wave schedule must be recomputed exactly when the frontier or
// the topology within 2R of it changes, and the cache invariant must
// hold throughout. Mirrors TestParallelChurn with waves on.
func TestParallelWaveChurn(t *testing.T) {
	builders := protoBuilders()
	g, err := graph.Named("grid:5x5")
	if err != nil {
		t.Fatal(err)
	}
	p, err := builders["bfstree"](g)
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(3)))
	ps := program.NewParallelSystem(p, program.ParallelConfig{
		Workers: 4, Seed: 17, Record: true, FrontierWaves: true,
		Reshard: program.ReshardPolicy{Imbalance: 1.5, MinInterval: 8},
	})
	apply := func(d graph.Delta, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ps.ApplyDelta(d)
	}
	step := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if _, err := ps.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(5)
	d, err := g.RemoveEdge(11, 12)
	apply(d, err)
	step(3)
	d, err = g.AddEdge(11, 12)
	apply(d, err)
	step(3)
	d, err = g.RemoveNode(7)
	apply(d, err)
	step(3)
	id, d := g.AddNode()
	if id != 7 {
		t.Fatalf("expected revive of slot 7, got %d", id)
	}
	ps.ApplyDelta(d)
	d, err = g.AddEdge(7, 6)
	apply(d, err)
	d, err = g.AddEdge(7, 8)
	apply(d, err)
	step(3)
	for i := 0; i < 2; i++ {
		nid, d := g.AddNode()
		if int(nid) != 25+i {
			t.Fatalf("expected appended id %d, got %d", 25+i, nid)
		}
		ps.ApplyDelta(d)
		dd, err := g.AddEdge(nid, graph.NodeID(i*10))
		apply(dd, err)
		step(2)
	}
	if ps.WaveRebuilds() == 0 {
		t.Fatal("a churn campaign on a 5x5 grid never rebuilt the wave schedule")
	}
	cacheInvariant(t, ps)
	ps.Reshard()
	cacheInvariant(t, ps)
	res, err := ps.RunUntilLegitimate(int64(2000 * (g.N() + g.M())))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence after churn")
	}
	cacheInvariant(t, ps)
}

// TestParallelWaveReclassSkip proves the ApplyDelta classification
// skip (and its counters): a delta whose 2R ball contains no frontier
// node leaves both the frontier list and the wave schedule untouched;
// a delta near the frontier recomputes only the waves; a delta that
// flips a membership rebuilds both. grid:12x12 at 3 workers puts the
// shard seams at rows 3/4 and 7/8, so row 0 is deep interior.
func TestParallelWaveReclassSkip(t *testing.T) {
	builders := protoBuilders()
	g, err := graph.Named("grid:12x12")
	if err != nil {
		t.Fatal(err)
	}
	p, err := builders["bfstree"](g)
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(8)))
	ps := program.NewParallelSystem(p, program.ParallelConfig{
		Workers: 3, Seed: 21, FrontierWaves: true,
	})
	step := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if _, err := ps.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	flap := func(a, b graph.NodeID) {
		t.Helper()
		d, err := g.RemoveEdge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ps.ApplyDelta(d)
		d, err = g.AddEdge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ps.ApplyDelta(d)
	}
	step(3)

	// Deep-interior flap: ids 5,6 sit in row 0, distance 3 from the
	// nearest frontier row — both deltas must skip everything.
	skips, waveRb, frontRb := ps.ReclassSkips(), ps.WaveRebuilds(), ps.FrontierRebuilds()
	flap(5, 6)
	if got := ps.ReclassSkips() - skips; got != 2 {
		t.Fatalf("deep flap: want 2 classification skips, got %d", got)
	}
	if ps.WaveRebuilds() != waveRb || ps.FrontierRebuilds() != frontRb {
		t.Fatal("deep flap rebuilt the frontier or the waves")
	}

	// Near-frontier flap: ids 41,42 are frontier row-3 nodes; the
	// horizontal flap flips no membership (the vertical cross-seam
	// edges are untouched) but rewires distances among frontier nodes,
	// so only the wave schedule is recomputed.
	skips, waveRb, frontRb = ps.ReclassSkips(), ps.WaveRebuilds(), ps.FrontierRebuilds()
	flap(41, 42)
	if ps.FrontierRebuilds() != frontRb {
		t.Fatal("near-frontier flap flipped a membership — seam geometry changed?")
	}
	if got := ps.WaveRebuilds() - waveRb; got != 2 {
		t.Fatalf("near-frontier flap: want 2 wave rebuilds, got %d", got)
	}
	if ps.ReclassSkips() != skips {
		t.Fatal("near-frontier flap was wrongly counted as a skip")
	}

	// Cross-seam flap: removing 41–53 cuts the only ball crossing of
	// both endpoints, flipping them interior — full rebuild both ways.
	frontRb = ps.FrontierRebuilds()
	flap(41, 53)
	if got := ps.FrontierRebuilds() - frontRb; got != 2 {
		t.Fatalf("cross-seam flap: want 2 frontier rebuilds, got %d", got)
	}

	step(3)
	cacheInvariant(t, ps)
	res, err := ps.RunUntilLegitimate(int64(2000 * (g.N() + g.M())))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence after the flap campaign")
	}
}

// overreach is the adversarial under-declaration case: its guards and
// statements are honestly radius-1 (guards read only the node's own
// flag, statements write it), but its Influence set names the whole
// 2-hop ball while the protocol declares the default radius 1.
// Single-node waves absorb that — their worker owns every cache slot —
// but a shard worker owns only its shard and a multi-node wave worker
// only the mover's radius-1 ball, so both must refuse the foreign
// write and report a breach instead of racing.
type overreach struct {
	g *graph.Graph
	x []byte
}

func (o *overreach) Name() string        { return "overreach" }
func (o *overreach) Graph() *graph.Graph { return o.g }

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
	return program.InfluenceWalk(o.g, v, 2, buf)
}

// TestParallelWaveBreachDetection: on a ring with 2-node shards every
// node is frontier, so the whole execution goes through the wave path;
// the first fired move's 2-hop influence set escapes its radius-1 ball
// and must surface as an under-declaration error from Step.
func TestParallelWaveBreachDetection(t *testing.T) {
	g, err := graph.Named("ring:8")
	if err != nil {
		t.Fatal(err)
	}
	o := &overreach{g: g, x: make([]byte, g.N())}
	ps := program.NewParallelSystem(o, program.ParallelConfig{
		Workers: 4, Seed: 1, FrontierWaves: true,
	})
	if ps.FrontierSize() != g.N() {
		t.Fatalf("expected an all-frontier split, got %d/%d", ps.FrontierSize(), g.N())
	}
	var firstErr error
	for i := 0; i < 4 && firstErr == nil; i++ {
		_, firstErr = ps.Step()
	}
	if firstErr == nil {
		t.Fatal("wave mode absorbed a foreign influence write instead of detecting it")
	}
	if !strings.Contains(firstErr.Error(), "under-declared") || !strings.Contains(firstErr.Error(), "wave") {
		t.Fatalf("breach error does not name the wave under-declaration: %v", firstErr)
	}

	// Single-node waves, by contrast, tolerate the over-reported set:
	// their worker owns every cache slot.
	o2 := &overreach{g: g, x: make([]byte, g.N())}
	ps2 := program.NewParallelSystem(o2, program.ParallelConfig{Workers: 4, Seed: 1})
	for i := 0; i < 4; i++ {
		if _, err := ps2.Step(); err != nil {
			t.Fatalf("single-node waves rejected an over-reported influence set: %v", err)
		}
	}
	if ps2.EnabledCount() != 0 {
		t.Fatal("overreach did not quiesce under single-node waves")
	}
}

// TestParallelShardBreachDetection is the phase-A twin: path:12 splits
// into shards [0,6) and [6,12), so node 4 is interior (its radius-1
// ball {3,4,5} stays in shard 0), yet its 2-hop influence set reaches
// node 6 in shard 1. The shard worker must refuse that write and Step
// must report the under-declaration, naming the shard.
func TestParallelShardBreachDetection(t *testing.T) {
	g, err := graph.Named("path:12")
	if err != nil {
		t.Fatal(err)
	}
	o := &overreach{g: g, x: make([]byte, g.N())}
	ps := program.NewParallelSystem(o, program.ParallelConfig{Workers: 2, Seed: 1})
	if ps.FrontierSize() != 2 {
		t.Fatalf("expected frontier {5,6}, got %d nodes", ps.FrontierSize())
	}
	_, err = ps.Step()
	if err == nil {
		t.Fatal("phase A absorbed a foreign influence write instead of detecting it")
	}
	if !strings.Contains(err.Error(), "under-declared") || !strings.Contains(err.Error(), "node 6 outside shard 0 [0,6)") {
		t.Fatalf("breach error does not name the shard: %v", err)
	}
}

// TestParallelReshardPolicy drives a genuinely skewed workload — a
// converged configuration re-corrupted only inside the last shard —
// and asserts the policy actually moves the boundaries, that the
// execution stays oracle-replayable across the move, and that the
// cache invariant survives.
func TestParallelReshardPolicy(t *testing.T) {
	builders := protoBuilders()
	g, err := graph.Named("grid:8x8")
	if err != nil {
		t.Fatal(err)
	}
	p, err := builders["bfstree"](g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	p.Randomize(rng)
	pre := program.NewParallelSystem(p, program.ParallelConfig{Workers: 1, Seed: 5})
	if res, err := pre.RunUntilLegitimate(int64(2000 * (g.N() + g.M()))); err != nil || !res.Converged {
		t.Fatalf("pre-convergence failed: %v %+v", err, res)
	}
	corruptor, ok := p.(program.NodeCorruptor)
	if !ok {
		t.Fatal("bfstree lost its NodeCorruptor")
	}
	for v := 48; v < 64; v++ {
		corruptor.CorruptNode(graph.NodeID(v), rng)
	}
	initial := p.Snapshot()
	ps := program.NewParallelSystem(p, program.ParallelConfig{
		Workers: 4, Seed: 9, Record: true, FrontierWaves: true,
		Reshard: program.ReshardPolicy{Imbalance: 1.01, MinInterval: 1},
	})
	res, err := ps.RunUntilLegitimate(int64(2000 * (g.N() + g.M())))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence under the reshard policy")
	}
	if ps.Reshards() == 0 {
		t.Fatal("a last-shard-only fault never triggered the reshard policy")
	}
	work := ps.ShardWork(nil)
	if len(work) != 4 {
		t.Fatalf("want 4 per-shard work counters, got %d", len(work))
	}
	shadow, err := builders["bfstree"](g)
	if err != nil {
		t.Fatal(err)
	}
	replayOracle(t, shadow, initial, p.Snapshot(), ps.Trace())
	cacheInvariant(t, ps)
}
