package failover_test

import (
	"math/rand"
	"testing"

	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
)

// hubGraph is the weighted-election fixture: root side 0–1–2, bridge
// 2–3, and an orphan side where node 4 is a degree-4 hub while the
// maximum id 8 dangles off a leaf. Cutting the bridge forces the
// election to choose between connectivity (4) and bare id (8).
//
//	0–1–2 — 3–4(–5)(–6)–7–8
func hubGraph() *graph.Graph {
	b := graph.NewBuilder(9)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 3)
	b.MustAddEdge(3, 4)
	b.MustAddEdge(4, 5)
	b.MustAddEdge(4, 6)
	b.MustAddEdge(4, 7)
	b.MustAddEdge(7, 8)
	return b.Build()
}

// TestWeightElectionPreservesLegitimacy: enabling the weighted key on
// a connected, already legitimate stack re-stabilizes the wrapper
// synchronously — the fixed root stays the sole acting root and the
// composed verdict is unchanged.
func TestWeightElectionPreservesLegitimacy(t *testing.T) {
	t.Parallel()
	p, err := stacks()["token"](graph.Lollipop(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Legitimate() {
		t.Fatal("token stack should construct legitimate")
	}
	p.WeightElection(map[graph.NodeID]int64{3: 9})
	if !p.Weighted() || p.Priority(3) != 9 {
		t.Fatal("WeightElection did not record the mode or the pin")
	}
	if !p.Legitimate() {
		t.Fatal("weighted re-stabilization lost legitimacy")
	}
	if roots := p.ActingRoots(); len(roots) != 1 || roots[0] != 0 {
		t.Fatalf("acting roots = %v, want [0]", roots)
	}
}

// TestWeightedElectionHighDegreeWins: with no operator pins the
// weighted key is (0, degree, id), so the orphan component elects its
// hub — node 4, degree 4 — over the bare-max id 8; the bare election
// on the same split elects 8 (TestActingRootFailoverAndAbdication
// shape). On heal the hub abdicates to the fixed root.
func TestWeightedElectionHighDegreeWins(t *testing.T) {
	t.Parallel()
	for _, sname := range []string{"token", "dftno"} {
		sname := sname
		t.Run(sname, func(t *testing.T) {
			t.Parallel()
			g := hubGraph()
			p, err := stacks()[sname](g)
			if err != nil {
				t.Fatal(err)
			}
			p.WeightElection(nil)
			sys := program.NewSystem(p, daemon.NewCentral(29))
			if _, err := sys.RunUntilLegitimate(60000); err != nil {
				t.Fatal(err)
			}

			d, err := g.RemoveEdge(2, 3)
			runDelta(t, sys, d, err)
			res, err := sys.RunUntilLegitimate(60000)
			if err != nil || !res.Converged {
				t.Fatalf("post-split convergence: %+v %v", res, err)
			}
			if roots := p.ActingRoots(); len(roots) != 2 || roots[0] != 0 || roots[1] != 4 {
				t.Fatalf("split acting roots = %v, want [0 4] (hub degree beats max id)", roots)
			}

			d, err = g.AddEdge(2, 3)
			runDelta(t, sys, d, err)
			res, err = sys.RunUntilLegitimate(60000)
			if err != nil || !res.Converged {
				t.Fatalf("post-heal convergence: %+v %v", res, err)
			}
			if roots := p.ActingRoots(); len(roots) != 1 || roots[0] != 0 {
				t.Fatalf("heal left acting roots %v, want [0]", roots)
			}
		})
	}
}

// TestWeightedElectionPinnedWins: an operator pin outranks both degree
// and id — leaf node 5 (degree 1, mid id) carries priority 10 and must
// win the orphan election over the hub and the max id.
func TestWeightedElectionPinnedWins(t *testing.T) {
	t.Parallel()
	g := hubGraph()
	p, err := stacks()["token"](g)
	if err != nil {
		t.Fatal(err)
	}
	p.WeightElection(map[graph.NodeID]int64{5: 10})
	sys := program.NewSystem(p, daemon.NewCentral(31))
	if _, err := sys.RunUntilLegitimate(60000); err != nil {
		t.Fatal(err)
	}

	d, err := g.RemoveEdge(2, 3)
	runDelta(t, sys, d, err)
	res, err := sys.RunUntilLegitimate(60000)
	if err != nil || !res.Converged {
		t.Fatalf("post-split convergence: %+v %v", res, err)
	}
	if roots := p.ActingRoots(); len(roots) != 2 || roots[0] != 0 || roots[1] != 5 {
		t.Fatalf("split acting roots = %v, want [0 5] (pin beats degree and id)", roots)
	}
}

// TestWeightedLockstep: from an identically corrupted start, the
// incremental scheduler must track the full-scan oracle bit-identically
// through a weighted election with a live pin — convergence, split,
// pinned-node promotion, heal, abdication.
func TestWeightedLockstep(t *testing.T) {
	t.Parallel()
	for _, sname := range []string{"token", "stno"} {
		sname := sname
		t.Run(sname, func(t *testing.T) {
			t.Parallel()
			g := hubGraph()
			build := stacks()[sname]
			pInc, err := build(g)
			if err != nil {
				t.Fatal(err)
			}
			pFull, err := build(g)
			if err != nil {
				t.Fatal(err)
			}
			pins := map[graph.NodeID]int64{6: 3}
			pInc.WeightElection(pins)
			pFull.WeightElection(pins)
			pInc.Randomize(rand.New(rand.NewSource(11)))
			pFull.Randomize(rand.New(rand.NewSource(11)))
			if string(pInc.Snapshot()) != string(pFull.Snapshot()) {
				t.Fatal("identical corruption seeds produced different configurations")
			}
			inc := program.NewSystem(pInc, daemon.NewCentral(37))
			full := program.NewSystemFullScan(pFull, daemon.NewCentral(37))
			goal := func() bool { return pInc.Legitimate() && pFull.Legitimate() }
			lockstepUntil(t, inc, full, pInc, pFull, 60000, goal)

			d, err := g.RemoveEdge(2, 3)
			if err != nil {
				t.Fatal(err)
			}
			inc.ApplyDelta(d)
			full.ApplyDelta(d)
			lockstepUntil(t, inc, full, pInc, pFull, 60000, goal)
			if roots := pInc.ActingRoots(); len(roots) != 2 || roots[0] != 0 || roots[1] != 6 {
				t.Fatalf("split acting roots = %v, want [0 6] (pinned node)", roots)
			}

			d, err = g.AddEdge(2, 3)
			if err != nil {
				t.Fatal(err)
			}
			inc.ApplyDelta(d)
			full.ApplyDelta(d)
			lockstepUntil(t, inc, full, pInc, pFull, 60000, goal)
			if roots := pInc.ActingRoots(); len(roots) != 1 || roots[0] != 0 {
				t.Fatalf("final acting roots = %v, want [0]", roots)
			}
			if inc.Moves() != full.Moves() {
				t.Fatalf("move counters diverge: inc=%d full=%d", inc.Moves(), full.Moves())
			}
		})
	}
}

// TestWeightedWitnessAudit: the wrapper's incremental witness must
// still agree with its O(n) predicate when the weighted clause (four
// compared fields instead of two) is active.
func TestWeightedWitnessAudit(t *testing.T) {
	t.Parallel()
	configs, steps := 4, 300
	if testing.Short() {
		configs, steps = 2, 100
	}
	p, err := stacks()["token"](hubGraph())
	if err != nil {
		t.Fatal(err)
	}
	p.WeightElection(map[graph.NodeID]int64{2: 5})
	rng := rand.New(rand.NewSource(7))
	if err := program.CheckWitness(p, configs, steps, func() program.Daemon { return daemon.NewCentral(19) }, rng); err != nil {
		t.Fatal(err)
	}
}
