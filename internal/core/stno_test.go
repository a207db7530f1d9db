package core

import (
	"math/rand"
	"testing"

	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
)

// newSTNOOracleDFS builds STNO over a fixed DFS tree.
func newSTNOOracleDFS(t *testing.T, g *graph.Graph, root graph.NodeID) *STNO {
	t.Helper()
	sub, err := spantree.NewDFSOracle(g, root)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newSTNOBFS builds STNO over the self-stabilizing BFS tree.
func newSTNOBFS(t *testing.T, g *graph.Graph, root graph.NodeID) *STNO {
	t.Helper()
	sub, err := spantree.NewBFSTree(g, root)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stabilize runs the system to legitimacy and fails the test otherwise.
func stabilize(t *testing.T, p program.Protocol, d program.Daemon, maxSteps int64) program.RunResult {
	t.Helper()
	sys := program.NewSystem(p, d)
	res, err := sys.RunUntilLegitimate(maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("%s: no convergence within %d steps", p.Name(), maxSteps)
	}
	return res
}

// TestSTNOPaperTrace reproduces Figure 4.1.1: on the paper's example
// tree the weights aggregate to (leaves 1, internal 3, root 5) and the
// naming is the preorder 0..4.
func TestSTNOPaperTrace(t *testing.T) {
	g := graph.PaperTreeExample()
	s := newSTNOOracleDFS(t, g, 0)
	stabilize(t, s, daemon.NewRoundRobin(), 10000)

	wantWeights := []int{5, 3, 1, 1, 1}
	for v, w := range wantWeights {
		if got := s.WeightOf(graph.NodeID(v)); got != w {
			t.Errorf("weight[%d] = %d, want %d (Figure 4.1.1)", v, got, w)
		}
	}
	wantNames := []int{0, 1, 2, 3, 4}
	names := s.Names()
	for v, want := range wantNames {
		if names[v] != want {
			t.Fatalf("names %v, want %v (Figure 4.1.1)", names, wantNames)
		}
	}
	if err := s.Labeling().Validate(g); err != nil {
		t.Fatalf("orientation invalid: %v", err)
	}
}

// TestSTNOWeightsAreSubtreeSizes checks the weight phase on assorted
// trees and graphs.
func TestSTNOWeightsAreSubtreeSizes(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"tree15":  graph.KAryTree(15, 2),
		"path8":   graph.Path(8),
		"star7":   graph.Star(7),
		"grid3x3": graph.Grid(3, 3),
		"ring7":   graph.Ring(7),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			s := newSTNOOracleDFS(t, g, 0)
			stabilize(t, s, daemon.NewRoundRobin(), int64(10000*(g.N()+g.M())))
			// Compute reference subtree sizes on the oracle's tree.
			_, parent := graph.DFSPreorder(g, 0)
			size := make([]int, g.N())
			order, _ := graph.DFSPreorder(g, 0)
			for i := len(order) - 1; i >= 0; i-- {
				v := order[i]
				size[v]++
				if parent[v] != graph.None {
					size[parent[v]] += size[v]
				}
			}
			for v := 0; v < g.N(); v++ {
				if got := s.WeightOf(graph.NodeID(v)); got != size[v] {
					t.Errorf("weight[%d] = %d, want subtree size %d", v, got, size[v])
				}
			}
			if s.WeightOf(0) != g.N() {
				t.Errorf("root weight %d, want n=%d", s.WeightOf(0), g.N())
			}
		})
	}
}

// TestSTNOOrientsNonTreeEdges checks the paper's point that STNO
// labels all edges, tree and non-tree alike.
func TestSTNOOrientsNonTreeEdges(t *testing.T) {
	g := graph.Complete(6) // n-1 tree edges, the rest non-tree
	s := newSTNOOracleDFS(t, g, 0)
	stabilize(t, s, daemon.NewRoundRobin(), 100000)
	if err := s.Labeling().Validate(g); err != nil {
		t.Fatalf("orientation invalid on clique: %v", err)
	}
}

// TestSTNOOverBFSTreeConverges randomizes the full stack (tree +
// orientation) and verifies convergence and SP1/SP2 under several
// daemons — STNO's substrate only needs an unfair daemon.
func TestSTNOOverBFSTreeConverges(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"paperTree": graph.PaperTreeExample(),
		"ring6":     graph.Ring(6),
		"grid3x3":   graph.Grid(3, 3),
		"clique5":   graph.Complete(5),
		"lollipop":  graph.Lollipop(4, 3),
	}
	daemons := map[string]func(int64) program.Daemon{
		"central":     func(s int64) program.Daemon { return daemon.NewCentral(s) },
		"distributed": func(s int64) program.Daemon { return daemon.NewDistributed(s, 0.5) },
		"synchronous": func(s int64) program.Daemon { return daemon.NewSynchronous(s) },
	}
	for name, g := range graphs {
		for dn, mk := range daemons {
			t.Run(name+"/"+dn, func(t *testing.T) {
				s := newSTNOBFS(t, g, 0)
				rng := rand.New(rand.NewSource(13))
				for trial := 0; trial < 8; trial++ {
					s.Randomize(rng)
					sys := program.NewSystem(s, mk(int64(trial)))
					res, err := sys.RunUntilLegitimate(int64(2000 * (g.N() + g.M())))
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatalf("trial %d: no convergence", trial)
					}
					if err := s.Labeling().Validate(g); err != nil {
						t.Fatalf("trial %d: orientation invalid: %v", trial, err)
					}
				}
			})
		}
	}
}

// TestSTNOSilentAfterStabilization: STNO is a silent protocol — once
// legitimate, nothing is enabled.
func TestSTNOSilentAfterStabilization(t *testing.T) {
	g := graph.Grid(3, 3)
	s := newSTNOBFS(t, g, 0)
	sys := program.NewSystem(s, daemon.NewRoundRobin())
	if res, err := sys.RunUntilLegitimate(100000); err != nil || !res.Converged {
		t.Fatalf("stabilization failed: %v %+v", err, res)
	}
	if !sys.Silent() {
		t.Fatal("legitimate STNO configuration still has enabled actions")
	}
}

// TestSTNODFSTreeMatchesDFTNO verifies the paper's Chapter 5
// observation: if STNO's spanning tree is the DFS tree (with the same
// local port order), both protocols produce the same naming.
func TestSTNODFSTreeMatchesDFTNO(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		g := graph.RandomConnected(3+rng.Intn(15), rng.Intn(12), rng)
		s := newSTNOOracleDFS(t, g, 0)
		stabilize(t, s, daemon.NewCentral(int64(trial)), int64(10000*(g.N()+g.M())))
		d := newDFTNOOracle(t, g, 0)
		sn, dn := s.Names(), d.ReferenceNames()
		for v := range sn {
			if sn[v] != dn[v] {
				t.Fatalf("trial %d on %s: STNO names %v differ from DFTNO names %v", trial, g, sn, dn)
			}
		}
	}
}

// TestSTNOBFSTreeDiffersFromDFSNamingSometimes documents the converse:
// over a non-DFS tree the namings generally differ (sanity check that
// the equivalence above is not vacuous).
func TestSTNOBFSTreeDiffersFromDFSNamingSometimes(t *testing.T) {
	g := graph.Ring(6) // BFS tree from 0 differs from the DFS path
	s := newSTNOBFS(t, g, 0)
	stabilize(t, s, daemon.NewRoundRobin(), 100000)
	d := newDFTNOOracle(t, g, 0)
	same := true
	sn, dn := s.Names(), d.ReferenceNames()
	for v := range sn {
		if sn[v] != dn[v] {
			same = false
		}
	}
	if same {
		t.Fatal("BFS-tree STNO unexpectedly matches DFTNO naming on the 6-ring")
	}
}

// TestSTNOStabilizationScalesWithHeight is the §4.2.3 claim: after the
// tree is stable, STNO stabilizes in O(h) rounds — so at fixed n, a
// shallow tree must stabilize in fewer rounds than a deep one.
func TestSTNOStabilizationScalesWithHeight(t *testing.T) {
	measure := func(g *graph.Graph) int64 {
		sub, err := spantree.NewDFSOracle(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSTNO(g, sub, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		s.Randomize(rng)
		sys := program.NewSystem(s, daemon.NewSynchronous(1))
		res, err := sys.RunUntilLegitimate(1 << 20)
		if err != nil || !res.Converged {
			t.Fatalf("no convergence: %v %+v", err, res)
		}
		return res.Rounds
	}
	const n = 31
	deep := measure(graph.Path(n))           // height n-1
	shallow := measure(graph.KAryTree(n, 2)) // height ⌊log₂ n⌋
	if shallow >= deep {
		t.Errorf("shallow tree took %d rounds, deep path took %d — expected O(h) separation", shallow, deep)
	}
}

// TestSTNOSnapshotRoundTrip exercises Snapshot/Restore.
func TestSTNOSnapshotRoundTrip(t *testing.T) {
	g := graph.Grid(2, 3)
	s := newSTNOBFS(t, g, 0)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		s.Randomize(rng)
		snap := s.Snapshot()
		s.Randomize(rng)
		if err := s.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if string(s.Snapshot()) != string(snap) {
			t.Fatal("stno snapshot round-trip mismatch")
		}
	}
}

// TestSTNORejectsBadModulus mirrors the DFTNO constructor check.
func TestSTNORejectsBadModulus(t *testing.T) {
	g := graph.Ring(6)
	sub, err := spantree.NewBFSOracle(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSTNO(g, sub, 2); err == nil {
		t.Error("expected error for modulus below n")
	}
}

// TestSTNOModulusLargerThanN checks SP1/SP2 with N > n.
func TestSTNOModulusLargerThanN(t *testing.T) {
	g := graph.Ring(5)
	sub, err := spantree.NewDFSOracle(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSTNO(g, sub, 12)
	if err != nil {
		t.Fatal(err)
	}
	stabilize(t, s, daemon.NewRoundRobin(), 100000)
	if err := s.Labeling().Validate(g); err != nil {
		t.Fatalf("orientation with N=12 invalid: %v", err)
	}
}

// TestSTNOOverFullSelfStabilizingStackWithDFTNOSubstrate sanity-checks
// composition breadth: STNO over the stabilizing DFS tree protocol.
func TestSTNOOverDFSTreeProtocol(t *testing.T) {
	g := graph.Grid(2, 3)
	sub, err := spantree.NewDFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		s.Randomize(rng)
		sys := program.NewSystem(s, daemon.NewCentral(int64(trial)))
		res, err := sys.RunUntilLegitimate(int64(4000 * (g.N() + g.M())))
		if err != nil || !res.Converged {
			t.Fatalf("trial %d: %v %+v", trial, err, res)
		}
		// DFS-tree STNO must match DFTNO naming (Chapter 5).
		d := newDFTNOOracle(t, g, 0)
		sn, dn := s.Names(), d.ReferenceNames()
		for v := range sn {
			if sn[v] != dn[v] {
				t.Fatalf("trial %d: names %v != %v", trial, sn, dn)
			}
		}
	}
}

// TestDFTNOAndSTNOOverSameGraphBothValid cross-checks both protocols
// against the shared validator.
func TestDFTNOAndSTNOOverSameGraphBothValid(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomConnected(4+rng.Intn(10), rng.Intn(8), rng)
		d := newDFTNOOracle(t, g, 0)
		if err := d.Labeling().Validate(g); err != nil {
			t.Fatalf("dftno: %v", err)
		}
		s := newSTNOBFS(t, g, 0)
		stabilize(t, s, daemon.NewCentral(int64(trial)), int64(4000*(g.N()+g.M())))
		if err := s.Labeling().Validate(g); err != nil {
			t.Fatalf("stno: %v", err)
		}
	}
}
