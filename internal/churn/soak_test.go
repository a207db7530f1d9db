package churn_test

import (
	"fmt"
	"strings"
	"testing"

	"netorient/internal/churn"
	"netorient/internal/core"
	"netorient/internal/daemon"
	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
	"netorient/internal/token"
)

// buildFailover wraps one of the named stacks in the failover layer.
func buildFailover(name string, g *graph.Graph) (*failover.Protocol, error) {
	var in failover.Inner
	var err error
	switch name {
	case "dftc":
		in, err = token.NewCirculator(g, 0)
	case "bfstree":
		in, err = spantree.NewBFSTree(g, 0)
	case "dftno":
		var sub *token.Circulator
		sub, err = token.NewCirculator(g, 0)
		if err == nil {
			in, err = core.NewDFTNO(g, sub, 0)
		}
	default:
		return nil, fmt.Errorf("unknown stack %q", name)
	}
	if err != nil {
		return nil, err
	}
	return failover.New(g, in, 0), nil
}

func soakRunner(t *testing.T, stack string, g *graph.Graph, seed int64) (*churn.Runner, *failover.Protocol) {
	t.Helper()
	p, err := buildFailover(stack, g)
	if err != nil {
		t.Fatal(err)
	}
	sys := program.NewSystem(p, daemon.NewCentral(seed))
	return &churn.Runner{G: g, Sys: sys, Root: 0}, p
}

// TestSoakAllStacks runs the multi-partition soak — overlapping
// splits, partial heals, root crash/revive, final heal sequence — on
// failover-wrapped stacks and requires a violation-free run that ends
// fully merged.
func TestSoakAllStacks(t *testing.T) {
	t.Parallel()
	for _, stack := range []string{"dftc", "bfstree", "dftno"} {
		stack := stack
		t.Run(stack, func(t *testing.T) {
			t.Parallel()
			g := graph.Lollipop(6, 6) // clique 0..5, bridgy tail 6..11
			r, p := soakRunner(t, stack, g, 7)
			st, err := r.Soak(p, churn.SoakConfig{Seed: 11, Phases: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !st.Ok() {
				t.Fatalf("soak violations:\n%v", st.Violations)
			}
			if st.FinalComponents != 1 {
				t.Fatalf("final components %d, want 1", st.FinalComponents)
			}
			split := false
			for _, ph := range st.Phases {
				if ph.Components > 1 {
					split = true
				}
				if ph.DetectSteps < 0 {
					t.Fatalf("phase %d (%s): detection latency unmeasured", ph.Index, ph.Op)
				}
				if !ph.Converged {
					t.Fatalf("phase %d (%s): no settle", ph.Index, ph.Op)
				}
			}
			if !split {
				t.Fatal("soak schedule never split the graph")
			}
			if st.LeaderFlaps == 0 {
				t.Fatal("no acting-root promotion across a splitting soak")
			}
		})
	}
}

// TestSoakLeaveSplit pins the never-reuniting-components mode: the
// run must end converged with a component that is permanently cut
// off, anchored at its acting root.
func TestSoakLeaveSplit(t *testing.T) {
	t.Parallel()
	g := graph.Lollipop(6, 6)
	r, p := soakRunner(t, "dftc", g, 3)
	st, err := r.Soak(p, churn.SoakConfig{Seed: 5, Phases: 6, LeaveSplit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Ok() {
		t.Fatalf("soak violations:\n%v", st.Violations)
	}
	if st.FinalComponents < 2 {
		t.Fatalf("final components %d, want >= 2 with LeaveSplit=1", st.FinalComponents)
	}
	roots := p.ActingRoots()
	if len(roots) != st.FinalComponents {
		t.Fatalf("%d acting roots for %d final components", len(roots), st.FinalComponents)
	}
}

// TestSoakDeterminism: equal seeds replay the same schedule and the
// same measurements.
func TestSoakDeterminism(t *testing.T) {
	t.Parallel()
	run := func() churn.SoakStats {
		g := graph.Lollipop(5, 4)
		r, p := soakRunner(t, "dftno", g, 9)
		st, err := r.Soak(p, churn.SoakConfig{Seed: 21, Phases: 6})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if len(a.Phases) != len(b.Phases) || a.TotalSteps != b.TotalSteps || a.TotalMoves != b.TotalMoves {
		t.Fatalf("runs diverge: %d/%d phases, %d/%d steps", len(a.Phases), len(b.Phases), a.TotalSteps, b.TotalSteps)
	}
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		if pa.Op != pb.Op || pa.DetectSteps != pb.DetectSteps || pa.SettleSteps != pb.SettleSteps {
			t.Fatalf("phase %d diverges: (%s,%d,%d) vs (%s,%d,%d)",
				i, pa.Op, pa.DetectSteps, pa.SettleSteps, pb.Op, pb.DetectSteps, pb.SettleSteps)
		}
	}
}

// TestFailoverReport pins the failover columns of the component
// report: acting root, flap counts, and detection-lag bookkeeping on
// a settled split.
func TestFailoverReport(t *testing.T) {
	t.Parallel()
	g := graph.Lollipop(4, 3) // clique 0-3, tail 4-5-6
	r, p := soakRunner(t, "dftc", g, 1)
	if _, err := r.Sys.RunUntilLegitimate(0); err != nil {
		t.Fatal(err)
	}
	d, err := g.RemoveEdge(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	r.Sys.ApplyDelta(d)
	res, err := r.Sys.RunUntilLegitimate(100000)
	if err != nil || !res.Converged {
		t.Fatalf("no settle after cut: %v %+v", err, res)
	}
	rep, err := churn.FailoverReport(g, 0, p, map[int]int64{g.ComponentOf(5): 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 2 {
		t.Fatalf("report has %d components, want 2", len(rep))
	}
	for _, c := range rep {
		if c.Lagging != 0 {
			t.Fatalf("component %d still lagging (%d nodes) after settle", c.Label, c.Lagging)
		}
		if c.HasRoot {
			if c.ActingRoot != 0 {
				t.Fatalf("rooted component acting root %d, want fixed root 0", c.ActingRoot)
			}
			if c.DetectSteps != -1 {
				t.Fatalf("rooted component detect steps %d, want -1 (not supplied)", c.DetectSteps)
			}
		} else {
			if c.ActingRoot != 6 {
				t.Fatalf("orphan acting root %d, want elected max id 6", c.ActingRoot)
			}
			if c.Flaps == 0 {
				t.Fatal("orphan component saw no acting-root promotion")
			}
			if c.DetectSteps != 17 {
				t.Fatalf("orphan detect steps %d, want supplied 17", c.DetectSteps)
			}
		}
	}
}

// TestSoakCorruptRate composes transient state faults with the
// partition schedule: every phase has a chance to overwrite a few
// nodes' local state on top of its topology mutation, and the run
// must still finish violation-free and fully merged.
func TestSoakCorruptRate(t *testing.T) {
	t.Parallel()
	g := graph.Lollipop(6, 6)
	r, p := soakRunner(t, "bfstree", g, 13)
	st, err := r.Soak(p, churn.SoakConfig{Seed: 1, Phases: 8, CorruptRate: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Ok() {
		t.Fatalf("soak violations:\n%v", st.Violations)
	}
	if st.Corruptions == 0 {
		t.Fatal("CorruptRate=0.9 over 8 phases corrupted nothing")
	}
	if st.FinalComponents != 1 {
		t.Fatalf("final components %d, want 1", st.FinalComponents)
	}
	corrupted := false
	for _, ph := range st.Phases {
		if strings.Contains(ph.Op, "+corrupt:") {
			corrupted = true
			if !ph.Converged {
				t.Fatalf("phase %d (%s): no settle after corruption", ph.Index, ph.Op)
			}
		}
	}
	if !corrupted {
		t.Fatal("no phase op records a corruption")
	}
}

// idleOnce is a program.Stepper whose first Step fires nothing while
// processors are enabled, as a ParallelSystem step with Activation < 1
// can.
type idleOnce struct {
	program.Stepper
	idled bool
}

func (s *idleOnce) Step() (int, error) {
	if !s.idled && s.EnabledCount() > 0 {
		s.idled = true
		return 0, nil
	}
	return s.Stepper.Step()
}

// TestSoakSurvivesIdleStep: a 0-move step with processors still
// enabled is not terminal, so Soak's detection loop must step through
// it instead of reporting that detection never converged.
func TestSoakSurvivesIdleStep(t *testing.T) {
	t.Parallel()
	g := graph.Lollipop(6, 6)
	r, p := soakRunner(t, "bfstree", g, 7)
	idle := &idleOnce{Stepper: r.Sys}
	r.Sys = idle
	st, err := r.Soak(p, churn.SoakConfig{Seed: 11, Phases: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !idle.idled {
		t.Fatal("the soak's detection loop never stepped")
	}
	if !st.Ok() {
		t.Fatalf("soak violations:\n%v", st.Violations)
	}
}

// TestSoakHealWhileRootDownKeepsRootEdges: a cut healed while the root
// is crashed cannot re-add its root-incident edges, and the root's
// revive only re-adds the edges it had when it crashed. The soak must
// re-add the skipped edges on the revive, so that healing every cut
// restores the whole original graph. Seed 3 heals such a cut.
func TestSoakHealWhileRootDownKeepsRootEdges(t *testing.T) {
	t.Parallel()
	g := graph.Lollipop(6, 6)
	want := g.Edges()
	r, p := soakRunner(t, "bfstree", g, 3)
	st, err := r.Soak(p, churn.SoakConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Ok() {
		t.Fatalf("soak violations:\n%v", st.Violations)
	}
	if st.FinalComponents != 1 {
		t.Fatalf("final components %d, want 1", st.FinalComponents)
	}
	var missing []graph.Edge
	for _, e := range want {
		if !g.HasEdge(e.U, e.V) {
			missing = append(missing, e)
		}
	}
	if len(missing) > 0 || g.M() != len(want) {
		t.Fatalf("final graph has %d edges, want %d; missing %v", g.M(), len(want), missing)
	}
}
