package failover_test

import (
	"fmt"
	"math/rand"
	"testing"

	"netorient/internal/core"
	"netorient/internal/daemon"
	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
	"netorient/internal/token"
)

// inners builds every protocol stack bare, rooted at node 0.
func inners() map[string]func(g *graph.Graph) (failover.Inner, error) {
	return map[string]func(g *graph.Graph) (failover.Inner, error){
		"token": func(g *graph.Graph) (failover.Inner, error) {
			return token.NewCirculator(g, 0)
		},
		"bfs": func(g *graph.Graph) (failover.Inner, error) {
			return spantree.NewBFSTree(g, 0)
		},
		"dfs": func(g *graph.Graph) (failover.Inner, error) {
			return spantree.NewDFSTree(g, 0)
		},
		"dftno": func(g *graph.Graph) (failover.Inner, error) {
			sub, err := token.NewCirculator(g, 0)
			if err != nil {
				return nil, err
			}
			return core.NewDFTNO(g, sub, 0)
		},
		"stno": func(g *graph.Graph) (failover.Inner, error) {
			sub, err := spantree.NewDFSTree(g, 0)
			if err != nil {
				return nil, err
			}
			return core.NewSTNO(g, sub, 0)
		},
	}
}

// stacks builds every protocol stack of inners wrapped in the failover
// layer, anchored at root 0.
func stacks() map[string]func(g *graph.Graph) (*failover.Protocol, error) {
	out := map[string]func(g *graph.Graph) (*failover.Protocol, error){}
	for name, build := range inners() {
		out[name] = func(g *graph.Graph) (*failover.Protocol, error) {
			in, err := build(g)
			if err != nil {
				return nil, err
			}
			return failover.New(g, in, 0), nil
		}
	}
	return out
}

// path returns the path graph 0–1–…–(n−1).
func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build()
}

// TestFailoverStartsLegitimate: the wrapper's constructor initialises
// detection and election at their fixpoint, so on a connected graph
// the effective root set is exactly the fixed root and detection
// agrees with component truth from step zero; wrapping must also
// preserve the stack's own starting legitimacy verdict (token and
// dftno construct legitimate; the tree stacks start zeroed and
// converge).
func TestFailoverStartsLegitimate(t *testing.T) {
	t.Parallel()
	startsLegit := map[string]bool{"token": true, "dftno": true}
	for sname, build := range stacks() {
		sname, build := sname, build
		t.Run(sname, func(t *testing.T) {
			t.Parallel()
			p, err := build(graph.Lollipop(4, 3))
			if err != nil {
				t.Fatal(err)
			}
			if roots := p.ActingRoots(); len(roots) != 1 || roots[0] != 0 {
				t.Fatalf("acting roots = %v, want [0]", roots)
			}
			if !p.DetectionAccurate() {
				t.Fatal("fresh detection disagrees with component truth")
			}
			if p.Legitimate() != startsLegit[sname] {
				t.Fatalf("fresh Legitimate = %v, want %v", p.Legitimate(), startsLegit[sname])
			}
			sys := program.NewSystem(p, daemon.NewCentral(3))
			res, err := sys.RunUntilLegitimate(40000)
			if err != nil || !res.Converged {
				t.Fatalf("initial convergence: %+v %v", res, err)
			}
			if roots := p.ActingRoots(); len(roots) != 1 || roots[0] != 0 {
				t.Fatalf("converged acting roots = %v, want [0]", roots)
			}
		})
	}
}

// TestFailoverWitnessAudit: the wrapper's incremental witness must
// agree with its O(n) predicate from random configurations, after
// every step, for every stack flavour.
func TestFailoverWitnessAudit(t *testing.T) {
	t.Parallel()
	configs, steps := 6, 400
	if testing.Short() {
		configs, steps = 2, 120
	}
	graphs := map[string]func() *graph.Graph{
		"ring6":    func() *graph.Graph { return graph.Ring(6) },
		"grid3x3":  func() *graph.Graph { return graph.Grid(3, 3) },
		"lollipop": func() *graph.Graph { return graph.Lollipop(4, 3) },
	}
	for gname, mk := range graphs {
		for sname, build := range stacks() {
			mk, build := mk, build
			t.Run(gname+"/"+sname, func(t *testing.T) {
				t.Parallel()
				p, err := build(mk())
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				if err := program.CheckWitness(p, configs, steps, func() program.Daemon { return daemon.NewCentral(19) }, rng); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFailoverLocalityAudit: the wrapper's Influence declaration must
// cover every guard its moves can change — including the wrapped
// stack's guards reacting to IsRoot flips.
func TestFailoverLocalityAudit(t *testing.T) {
	t.Parallel()
	configs := 40
	if testing.Short() {
		configs = 10
	}
	for sname, build := range stacks() {
		build := build
		t.Run(sname, func(t *testing.T) {
			t.Parallel()
			p, err := build(graph.Lollipop(4, 3))
			if err != nil {
				t.Fatal(err)
			}
			if err := program.CheckLocality(p, configs, rand.New(rand.NewSource(11))); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFailoverContractAudit probes the wrapper's own actions through
// the Execute re-evaluation contract.
func TestFailoverContractAudit(t *testing.T) {
	t.Parallel()
	p, err := stacks()["token"](graph.Grid(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	probes := []program.ActionID{failover.ActDetect, failover.ActElect, token.ActStart}
	if err := program.CheckContractActions(p, probes, 30, rand.New(rand.NewSource(13))); err != nil {
		t.Fatal(err)
	}
}

// runDelta mutates the graph and forwards the delta to the system.
func runDelta(t *testing.T, sys *program.System, d graph.Delta, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	sys.ApplyDelta(d)
}

// TestDetectionConvergesToTruth is the tentpole's differential audit:
// after every split and heal in a schedule, the Orphaned verdicts must
// converge to agreement with graph.ComponentOf truth within the step
// budget, and — detection being a stable predicate of a settled
// configuration — must not flap afterwards.
func TestDetectionConvergesToTruth(t *testing.T) {
	t.Parallel()
	for sname, build := range stacks() {
		build := build
		t.Run(sname, func(t *testing.T) {
			t.Parallel()
			g := graph.Lollipop(5, 4) // clique 0..4, tail 5-6-7-8
			p, err := build(g)
			if err != nil {
				t.Fatal(err)
			}
			sys := program.NewSystem(p, daemon.NewCentral(23))
			budget := int64(40000)
			settle := func(ctx string) {
				t.Helper()
				res, err := sys.RunUntilLegitimate(budget)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				if !res.Converged {
					t.Fatalf("%s: not legitimate within %d steps", ctx, budget)
				}
				if !p.DetectionAccurate() {
					t.Fatalf("%s: settled but Orphaned disagrees with component truth", ctx)
				}
				ok, err := sys.HoldsFor(p.DetectionAccurate, 50)
				if err != nil || !ok {
					t.Fatalf("%s: detection flapped after settling (ok=%v err=%v)", ctx, ok, err)
				}
			}
			settle("initial")

			// Split: cut the tail bridge, orphaning 6-7-8.
			d, err := g.RemoveEdge(5, 6)
			runDelta(t, sys, d, err)
			settle("split 5-6")

			// Second split inside the orphan: 8 alone.
			d, err = g.RemoveEdge(7, 8)
			runDelta(t, sys, d, err)
			settle("split 7-8")

			// Partial heal: 8 rejoins the orphan component, which still
			// has no fixed root.
			d, err = g.AddEdge(7, 8)
			runDelta(t, sys, d, err)
			settle("partial heal 7-8")

			// Root crash: the clique loses its anchor too.
			d, err = g.RemoveNode(0)
			runDelta(t, sys, d, err)
			settle("root crash")

			// Root revive, re-attached to the clique and the tail (the
			// crash severed both: the tail hangs off the root).
			_, d = g.AddNode()
			runDelta(t, sys, d, nil)
			d, err = g.AddEdge(0, 1)
			runDelta(t, sys, d, err)
			d, err = g.AddEdge(0, 5)
			runDelta(t, sys, d, err)
			settle("root revive")

			// Full heal.
			d, err = g.AddEdge(5, 6)
			runDelta(t, sys, d, err)
			settle("full heal")
			if roots := p.ActingRoots(); len(roots) != 1 || roots[0] != 0 {
				t.Fatalf("after full heal acting roots = %v, want [0]", roots)
			}
		})
	}
}

// TestActingRootFailoverAndAbdication: a component that loses the root
// re-anchors at its max-id acting root and converges to local
// legitimacy; on heal the acting root abdicates and the merged
// component re-converges under the fixed root — no stuck acting
// roots, acting-root state washed out.
func TestActingRootFailoverAndAbdication(t *testing.T) {
	t.Parallel()
	for sname, build := range stacks() {
		build := build
		t.Run(sname, func(t *testing.T) {
			t.Parallel()
			g := path(7)
			p, err := build(g)
			if err != nil {
				t.Fatal(err)
			}
			sys := program.NewSystem(p, daemon.NewCentral(29))
			if _, err := sys.RunUntilLegitimate(40000); err != nil {
				t.Fatal(err)
			}

			d, err := g.RemoveEdge(3, 4)
			runDelta(t, sys, d, err)
			res, err := sys.RunUntilLegitimate(40000)
			if err != nil || !res.Converged {
				t.Fatalf("post-split convergence: %+v %v", res, err)
			}
			roots := p.ActingRoots()
			if len(roots) != 2 || roots[0] != 0 || roots[1] != 6 {
				t.Fatalf("split acting roots = %v, want [0 6] (max id of orphan 4-5-6)", roots)
			}
			for v := graph.NodeID(4); v <= 6; v++ {
				if !p.Orphaned(v) {
					t.Fatalf("node %d not orphaned after split", v)
				}
			}

			d, err = g.AddEdge(3, 4)
			runDelta(t, sys, d, err)
			res, err = sys.RunUntilLegitimate(40000)
			if err != nil || !res.Converged {
				t.Fatalf("post-heal convergence: %+v %v", res, err)
			}
			if roots := p.ActingRoots(); len(roots) != 1 || roots[0] != 0 {
				t.Fatalf("heal left acting roots %v, want [0]", roots)
			}
			for v := 0; v < g.N(); v++ {
				if p.Orphaned(graph.NodeID(v)) {
					t.Fatalf("node %d still orphaned after heal", v)
				}
			}
			if p.LeaderFlaps == 0 {
				t.Fatal("no leader flap recorded for the failover")
			}
		})
	}
}

// lockstepUntil drives both systems in lockstep until goal() holds,
// asserting identical per-step move counts and identical snapshots
// throughout.
func lockstepUntil(t *testing.T, inc, full *program.System, pInc, pFull program.Snapshotter, max int, goal func() bool) int {
	t.Helper()
	for i := 0; i < max; i++ {
		if goal() {
			return i
		}
		nInc, errInc := inc.Step()
		nFull, errFull := full.Step()
		if errInc != nil || errFull != nil || nInc != nFull {
			t.Fatalf("lockstep step %d: inc=(%d,%v) full=(%d,%v)", i, nInc, errInc, nFull, errFull)
		}
		if string(pInc.Snapshot()) != string(pFull.Snapshot()) {
			t.Fatalf("lockstep step %d: configurations diverge", i)
		}
		if nInc == 0 && !goal() {
			t.Fatalf("lockstep step %d: both systems quiesced before the goal", i)
		}
	}
	t.Fatalf("goal not reached within %d lockstep steps", max)
	return 0
}

// lockstepPair builds two failover stacks over one shared graph and
// the matching incremental/full-scan systems.
func lockstepPair(t *testing.T, g *graph.Graph, sname string) (*failover.Protocol, *failover.Protocol, *program.System, *program.System) {
	t.Helper()
	build := stacks()[sname]
	pInc, err := build(g)
	if err != nil {
		t.Fatal(err)
	}
	pFull, err := build(g)
	if err != nil {
		t.Fatal(err)
	}
	inc := program.NewSystem(pInc, daemon.NewCentral(37))
	full := program.NewSystemFullScan(pFull, daemon.NewCentral(37))
	return pInc, pFull, inc, full
}

// TestActingRootMergeLockstep is the satellite's directed race test:
// two orphan components, each settled under its own acting root, merge
// — the incremental scheduler must track the full-scan oracle
// bit-identically through the double-acting-root election and the
// final re-merge with the fixed root's component.
func TestActingRootMergeLockstep(t *testing.T) {
	t.Parallel()
	for _, sname := range []string{"token", "dftno"} {
		sname := sname
		t.Run(sname, func(t *testing.T) {
			t.Parallel()
			g := path(9)
			pInc, pFull, inc, full := lockstepPair(t, g, sname)
			goal := func() bool { return pInc.Legitimate() && pFull.Legitimate() }
			lockstepUntil(t, inc, full, pInc, pFull, 60000, goal)

			cut := func(u, v graph.NodeID) {
				d, err := g.RemoveEdge(u, v)
				if err != nil {
					t.Fatal(err)
				}
				inc.ApplyDelta(d)
				full.ApplyDelta(d)
			}
			heal := func(u, v graph.NodeID) {
				d, err := g.AddEdge(u, v)
				if err != nil {
					t.Fatal(err)
				}
				inc.ApplyDelta(d)
				full.ApplyDelta(d)
			}

			// Three components: {0,1,2} rooted, {3,4,5} and {6,7,8}
			// orphaned, electing acting roots 5 and 8.
			cut(2, 3)
			cut(5, 6)
			lockstepUntil(t, inc, full, pInc, pFull, 60000, goal)
			if roots := pInc.ActingRoots(); len(roots) != 3 || roots[0] != 0 || roots[1] != 5 || roots[2] != 8 {
				t.Fatalf("split acting roots = %v, want [0 5 8]", roots)
			}

			// Merge the two acting-root components: 8 must win, 5 must
			// abdicate.
			heal(5, 6)
			lockstepUntil(t, inc, full, pInc, pFull, 60000, goal)
			if roots := pInc.ActingRoots(); len(roots) != 2 || roots[0] != 0 || roots[1] != 8 {
				t.Fatalf("merged acting roots = %v, want [0 8]", roots)
			}

			// Re-merge with the fixed root's component.
			heal(2, 3)
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

// TestHealMidElectionLockstep is the satellite's second race: the heal
// delta lands while the orphan component's election is still
// converging. The incremental scheduler must stay bit-identical
// through the interrupted election and the abdication that follows.
func TestHealMidElectionLockstep(t *testing.T) {
	t.Parallel()
	for _, sname := range []string{"token", "stno"} {
		sname := sname
		for midSteps := 1; midSteps <= 9; midSteps += 4 {
			midSteps := midSteps
			t.Run(fmt.Sprintf("%s/mid%d", sname, midSteps), func(t *testing.T) {
				t.Parallel()
				g := path(8)
				pInc, pFull, inc, full := lockstepPair(t, g, sname)
				goal := func() bool { return pInc.Legitimate() && pFull.Legitimate() }
				lockstepUntil(t, inc, full, pInc, pFull, 60000, goal)

				d, err := g.RemoveEdge(3, 4)
				if err != nil {
					t.Fatal(err)
				}
				inc.ApplyDelta(d)
				full.ApplyDelta(d)

				// A few lockstep steps: detection/election mid-flight.
				for i := 0; i < midSteps; i++ {
					nInc, errInc := inc.Step()
					nFull, errFull := full.Step()
					if errInc != nil || errFull != nil || nInc != nFull {
						t.Fatalf("mid step %d: inc=(%d,%v) full=(%d,%v)", i, nInc, errInc, nFull, errFull)
					}
					if string(pInc.Snapshot()) != string(pFull.Snapshot()) {
						t.Fatalf("mid step %d: configurations diverge", i)
					}
				}

				d, err = g.AddEdge(3, 4)
				if err != nil {
					t.Fatal(err)
				}
				inc.ApplyDelta(d)
				full.ApplyDelta(d)
				lockstepUntil(t, inc, full, pInc, pFull, 60000, goal)
				if roots := pInc.ActingRoots(); len(roots) != 1 || roots[0] != 0 {
					t.Fatalf("acting roots = %v, want [0]", roots)
				}
			})
		}
	}
}

// TestFailoverWitnessSettleEquivalence drives the same churn schedule
// on a witness-deciding incremental system and a scan-deciding
// full-scan system: both must settle after identical step counts with
// identical configurations at every settle point — the "witness ≡
// scan at every settle point" invariant the soak engine checks.
func TestFailoverWitnessSettleEquivalence(t *testing.T) {
	t.Parallel()
	g := graph.Lollipop(5, 4)
	pInc, pFull, inc, full := lockstepPair(t, g, "token")
	schedule := []func() (graph.Delta, error){
		func() (graph.Delta, error) { return g.RemoveEdge(5, 6) },
		func() (graph.Delta, error) { return g.RemoveEdge(6, 7) },
		func() (graph.Delta, error) { return g.AddEdge(6, 7) },
		func() (graph.Delta, error) { return g.AddEdge(5, 6) },
	}
	settle := func(ctx string) {
		t.Helper()
		resInc, err := inc.RunUntilLegitimate(60000)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		resFull, err := full.RunUntilLegitimate(60000)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if !resInc.Converged || !resFull.Converged {
			t.Fatalf("%s: converged inc=%v full=%v", ctx, resInc.Converged, resFull.Converged)
		}
		if resInc.Steps != resFull.Steps || resInc.Moves != resFull.Moves {
			t.Fatalf("%s: witness-decided settle (s=%d m=%d) ≠ scan-decided settle (s=%d m=%d)",
				ctx, resInc.Steps, resInc.Moves, resFull.Steps, resFull.Moves)
		}
		if string(pInc.Snapshot()) != string(pFull.Snapshot()) {
			t.Fatalf("%s: settle configurations diverge", ctx)
		}
		if pInc.WitnessLegitimate() != pInc.Legitimate() {
			t.Fatalf("%s: witness verdict disagrees with scan at settle", ctx)
		}
	}
	settle("initial")
	for i, mut := range schedule {
		d, err := mut()
		if err != nil {
			t.Fatal(err)
		}
		inc.ApplyDelta(d)
		full.ApplyDelta(d)
		settle(fmt.Sprintf("delta %d", i))
	}
}
