package token

import (
	"math/rand"
	"testing"

	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
)

func TestOracleReplaysIdealCirculation(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			o, err := NewOracle(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			rec := newVisitRecorder()
			o.SetObserver(rec)
			sys := program.NewSystem(o, daemon.NewDeterministic())
			for rec.rounds < 3 {
				if _, err := sys.Step(); err != nil {
					t.Fatal(err)
				}
			}
			wantOrder, wantParent := graph.DFSPreorder(g, 0)
			for _, visits := range rec.all {
				if len(visits) != g.N() {
					t.Fatalf("round visited %d nodes, want %d", len(visits), g.N())
				}
				for i, v := range visits {
					if v != wantOrder[i] {
						t.Fatalf("visit order %v, want %v", visits, wantOrder)
					}
				}
			}
			for v := 1; v < g.N(); v++ {
				if o.Parent(graph.NodeID(v)) != wantParent[v] {
					t.Errorf("oracle parent of %d = %d, want %d", v, o.Parent(graph.NodeID(v)), wantParent[v])
				}
			}
		})
	}
}

func TestOracleRoundLength(t *testing.T) {
	// One round = 1 root start + (n-1) forwards + (n-1) backtracks.
	g := graph.KAryTree(7, 2)
	o, err := NewOracle(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 2*(g.N()-1); o.RoundLength() != want {
		t.Fatalf("round length %d, want %d", o.RoundLength(), want)
	}
}

func TestOracleSingleEnabledProcessor(t *testing.T) {
	g := graph.Ring(6)
	o, err := NewOracle(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf []program.ActionID
	sys := program.NewSystem(o, daemon.NewDeterministic())
	for i := 0; i < 3*o.RoundLength(); i++ {
		holders, enabled := 0, 0
		for v := 0; v < g.N(); v++ {
			if o.HasToken(graph.NodeID(v)) {
				holders++
			}
			buf = o.Enabled(graph.NodeID(v), buf[:0])
			enabled += len(buf)
		}
		if holders != 1 || enabled != 1 {
			t.Fatalf("step %d: holders=%d enabled=%d, want 1/1", i, holders, enabled)
		}
		if _, err := sys.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOracleSnapshotRoundTrip(t *testing.T) {
	g := graph.Grid(2, 3)
	o, err := NewOracle(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		o.Randomize(rng)
		snap := o.Snapshot()
		o.Randomize(rng)
		if err := o.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if string(o.Snapshot()) != string(snap) {
			t.Fatal("oracle snapshot round-trip mismatch")
		}
	}
}
