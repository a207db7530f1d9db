package core

import (
	"math/rand"
	"testing"

	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/token"
)

// newDFTNOOracle builds DFTNO over the oracle substrate.
func newDFTNOOracle(t *testing.T, g *graph.Graph, root graph.NodeID) *DFTNO {
	t.Helper()
	sub, err := token.NewOracle(g, root)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDFTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// newDFTNOCirculator builds DFTNO over the self-stabilizing substrate.
func newDFTNOCirculator(t *testing.T, g *graph.Graph, root graph.NodeID) *DFTNO {
	t.Helper()
	sub, err := token.NewCirculator(g, root)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDFTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDFTNOPaperTrace reproduces Figure 3.1.1: on the paper's 5-node
// rooted graph the token names r=0, b=1, d=2, c=3, a=4, and the Max
// values propagate 3 back to the root before a is named 4.
func TestDFTNOPaperTrace(t *testing.T) {
	g := graph.PaperTokenExample()
	for _, build := range []struct {
		name string
		mk   func(*testing.T, *graph.Graph, graph.NodeID) *DFTNO
	}{
		{"oracle", newDFTNOOracle},
		{"circulator", newDFTNOCirculator},
	} {
		t.Run(build.name, func(t *testing.T) {
			d := build.mk(t, g, 0)
			// PaperTokenExample ids are chosen so the preorder naming
			// is the identity: r=0, b=1, d=2, c=3, a=4.
			want := []int{0, 1, 2, 3, 4}
			got := d.ReferenceNames()
			for v, name := range got {
				if name != want[v] {
					t.Fatalf("reference naming %v, want %v (paper Figure 3.1.1)", got, want)
				}
			}
			if !d.Legitimate() {
				t.Fatal("constructed DFTNO is not legitimate")
			}
			if err := d.Labeling().Validate(g); err != nil {
				t.Fatalf("orientation invalid: %v", err)
			}
		})
	}
}

// TestDFTNOPaperMaxPropagation follows the Max variable through the
// steps (ii)–(x) of Figure 3.1.1 on the oracle substrate.
func TestDFTNOPaperMaxPropagation(t *testing.T) {
	g := graph.PaperTokenExample()
	sub, err := token.NewOracle(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDFTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	const (
		r  = graph.NodeID(0)
		b  = graph.NodeID(1)
		dd = graph.NodeID(2)
		c  = graph.NodeID(3)
		a  = graph.NodeID(4)
	)
	type expect struct {
		node graph.NodeID
		max  int
	}
	// One move at a time; after each, the listed node must hold the
	// listed Max value (paper steps ii..x).
	steps := []expect{
		{r, 0},  // (ii) root generates token, names itself 0
		{b, 1},  // (iii) b gets token, names itself 1
		{dd, 2}, // (iv) d names itself 2
		{c, 3},  // (v) c names itself 3
		{dd, 3}, // (vi) token backtracks to d with max 3
		{b, 3},  // (vii) b sets max 3
		{r, 3},  // (viii) root learns max 3
		{a, 4},  // (ix) a names itself 4
		{r, 4},  // (x) backtrack: root ends round with max 4
	}
	sys := program.NewSystem(d, daemon.NewDeterministic())
	for i, st := range steps {
		if _, err := sys.Step(); err != nil {
			t.Fatal(err)
		}
		if got := d.MaxOf(st.node); got != st.max {
			t.Fatalf("after step %d (paper step %s): Max[%d]=%d, want %d",
				i+1, []string{"ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x"}[i], st.node, got, st.max)
		}
	}
}

// TestDFTNONamesAreDFSPreorder checks SP1 and the naming's identity
// with the deterministic DFS preorder on a spread of topologies.
func TestDFTNONamesAreDFSPreorder(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ring8":    graph.Ring(8),
		"clique5":  graph.Complete(5),
		"grid3x4":  graph.Grid(3, 4),
		"tree15":   graph.KAryTree(15, 2),
		"lollipop": graph.Lollipop(4, 4),
		"wheel7":   graph.Wheel(7),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			d := newDFTNOOracle(t, g, 0)
			order, _ := graph.DFSPreorder(g, 0)
			names := d.ReferenceNames()
			for idx, v := range order {
				if names[v] != idx {
					t.Fatalf("node %d named %d, want DFS preorder index %d", v, names[v], idx)
				}
			}
			if err := d.Labeling().Validate(g); err != nil {
				t.Fatalf("orientation invalid: %v", err)
			}
		})
	}
}

// TestDFTNOConvergesOverOracle corrupts only the orientation layer
// (the substrate stays ideal) and checks O(n)-flavoured convergence —
// the paper's layered claim: after the token circulation stabilizes,
// DFTNO stabilizes within a bounded number of rounds.
func TestDFTNOConvergesOverOracle(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"paper":   graph.PaperTokenExample(),
		"ring6":   graph.Ring(6),
		"grid3x3": graph.Grid(3, 3),
		"clique5": graph.Complete(5),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			d := newDFTNOOracle(t, g, 0)
			rng := rand.New(rand.NewSource(99))
			for trial := 0; trial < 20; trial++ {
				d.Randomize(rng)
				sys := program.NewSystem(d, daemon.NewCentral(int64(trial)))
				res, err := sys.RunUntilLegitimate(int64(400 * (g.N() + g.M())))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("trial %d: no convergence", trial)
				}
				if err := d.Labeling().Validate(g); err != nil {
					t.Fatalf("trial %d: orientation invalid after convergence: %v", trial, err)
				}
			}
		})
	}
}

// TestDFTNOConvergesFullStack randomizes substrate and orientation
// together — full self-stabilization of the composed system.
func TestDFTNOConvergesFullStack(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"paper":   graph.PaperTokenExample(),
		"ring5":   graph.Ring(5),
		"tree7":   graph.KAryTree(7, 2),
		"clique4": graph.Complete(4),
	}
	daemons := map[string]func(int64) program.Daemon{
		"central":     func(s int64) program.Daemon { return daemon.NewCentral(s) },
		"distributed": func(s int64) program.Daemon { return daemon.NewDistributed(s, 0.5) },
	}
	for name, g := range graphs {
		for dn, mk := range daemons {
			t.Run(name+"/"+dn, func(t *testing.T) {
				d := newDFTNOCirculator(t, g, 0)
				rng := rand.New(rand.NewSource(5))
				for trial := 0; trial < 10; trial++ {
					d.Randomize(rng)
					sys := program.NewSystem(d, mk(int64(trial)))
					res, err := sys.RunUntilLegitimate(int64(3000 * (g.N() + g.M())))
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatalf("trial %d: no convergence", trial)
					}
				}
			})
		}
	}
}

// TestDFTNOLegitimacyClosedAlongRun verifies closure empirically: once
// legitimate, the system stays legitimate while the token keeps
// circulating and re-assigning the same names.
func TestDFTNOLegitimacyClosedAlongRun(t *testing.T) {
	g := graph.Grid(3, 3)
	d := newDFTNOCirculator(t, g, 0)
	sys := program.NewSystem(d, daemon.NewDeterministic())
	ok, err := sys.HoldsFor(d.Legitimate, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("legitimacy not closed along a clean run")
	}
}

// TestDFTNOSnapshotRoundTrip exercises Snapshot/Restore on randomized
// configurations.
func TestDFTNOSnapshotRoundTrip(t *testing.T) {
	g := graph.Ring(5)
	d := newDFTNOCirculator(t, g, 0)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		d.Randomize(rng)
		snap := d.Snapshot()
		d.Randomize(rng)
		if err := d.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if string(d.Snapshot()) != string(snap) {
			t.Fatal("dftno snapshot round-trip mismatch")
		}
	}
}

// TestDFTNOModulusLargerThanN checks SP1/SP2 with a loose upper bound
// N > n, which the paper explicitly permits.
func TestDFTNOModulusLargerThanN(t *testing.T) {
	g := graph.Ring(6)
	sub, err := token.NewOracle(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDFTNO(g, sub, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Modulus() != 10 {
		t.Fatalf("modulus %d, want 10", d.Modulus())
	}
	if err := d.Labeling().Validate(g); err != nil {
		t.Fatalf("orientation with N=10 invalid: %v", err)
	}
}

func TestDFTNORejectsBadModulus(t *testing.T) {
	g := graph.Ring(6)
	sub, err := token.NewOracle(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDFTNO(g, sub, 3); err == nil {
		t.Error("expected error for modulus below n")
	}
}

// TestDFTNOStabilizationIsLinearAfterSubstrate measures the paper's
// headline complexity claim (§3.2.3): orientation completes within
// O(n) moves after the substrate is stable — concretely, within one
// circulation round plus one correction move per node.
func TestDFTNOStabilizationIsLinearAfterSubstrate(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		g := graph.Ring(n)
		d := newDFTNOOracle(t, g, 0)
		rng := rand.New(rand.NewSource(int64(n)))
		d.Randomize(rng) // orientation garbage; substrate legitimacy unaffected
		sys := program.NewSystem(d, daemon.NewRoundRobin())
		res, err := sys.RunUntilLegitimate(int64(1000 * n))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: no convergence", n)
		}
		// One full round is 2n-1 substrate moves; allow two rounds
		// plus n label corrections — still Θ(n).
		bound := int64(2*(2*n-1) + n + 4)
		if res.Moves > bound {
			t.Errorf("n=%d: took %d moves, want ≤ %d (O(n))", n, res.Moves, bound)
		}
	}
}
