package core

import (
	"math/rand"
	"testing"

	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/sod"
	"netorient/internal/spantree"
	"netorient/internal/token"
)

// TestOrientationWitnessesMatchLegitimate audits both orientation
// layers' incremental legitimacy witnesses against their O(n)
// predicates, over every substrate combination: from random
// configurations of the full stack, armed executions must report the
// identical verdict after every step.
func TestOrientationWitnessesMatchLegitimate(t *testing.T) {
	t.Parallel()
	graphs := map[string]*graph.Graph{
		"ring6":   graph.Ring(6),
		"grid3x3": graph.Grid(3, 3),
		"paper":   graph.PaperTokenExample(),
	}
	stacks := map[string]func(g *graph.Graph) (program.Protocol, error){
		"dftno/dftc": func(g *graph.Graph) (program.Protocol, error) {
			sub, err := token.NewCirculator(g, 0)
			if err != nil {
				return nil, err
			}
			return NewDFTNO(g, sub, 0)
		},
		"dftno/oracle": func(g *graph.Graph) (program.Protocol, error) {
			sub, err := token.NewOracle(g, 0)
			if err != nil {
				return nil, err
			}
			return NewDFTNO(g, sub, 0)
		},
		"stno/bfstree": func(g *graph.Graph) (program.Protocol, error) {
			sub, err := spantree.NewBFSTree(g, 0)
			if err != nil {
				return nil, err
			}
			return NewSTNO(g, sub, 0)
		},
		"stno/dfstree": func(g *graph.Graph) (program.Protocol, error) {
			sub, err := spantree.NewDFSTree(g, 0)
			if err != nil {
				return nil, err
			}
			return NewSTNO(g, sub, 0)
		},
		"stno/oracle": func(g *graph.Graph) (program.Protocol, error) {
			sub, err := spantree.NewBFSOracle(g, 0)
			if err != nil {
				return nil, err
			}
			return NewSTNO(g, sub, 0)
		},
	}
	configs, steps := 8, 500
	if testing.Short() {
		configs, steps = 3, 150
	}
	for gname, g := range graphs {
		for sname, build := range stacks {
			g, build := g, build
			t.Run(gname+"/"+sname, func(t *testing.T) {
				t.Parallel()
				p, err := build(g)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(41))
				if err := program.CheckWitness(p, configs, steps, func() program.Daemon { return daemon.NewCentral(41) }, rng); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// recordedCycle reconstructs the pre-invariant legitimacy reference:
// the snapshot→Max-vector map over one full legitimate circulation
// cycle, recorded exactly as the deleted DFTNO recording phase did —
// by driving the substrate's sole enabled move until the composed
// configuration repeats.
// soleLegitimateMove returns the unique enabled move of a legitimate
// composed configuration (the circulation is deterministic there).
func soleLegitimateMove(t *testing.T, d *DFTNO) program.Move {
	t.Helper()
	g := d.Graph()
	var found program.Move
	count := 0
	var buf []program.ActionID
	for v := 0; v < g.N(); v++ {
		buf = d.Enabled(graph.NodeID(v), buf[:0])
		for _, a := range buf {
			found = program.Move{Node: graph.NodeID(v), Action: a}
			count++
		}
	}
	if count != 1 {
		t.Fatalf("legitimate configuration has %d enabled moves, want 1", count)
	}
	return found
}

func recordedCycle(t *testing.T, d *DFTNO) map[string][]int {
	t.Helper()
	g := d.Graph()
	soleMove := func() program.Move { return soleLegitimateMove(t, d) }
	sub := d.Substrate()
	// Phase 1 (as the deleted recording did): drive until a substrate
	// configuration repeats — the entry of the steady cycle. The fresh
	// constructor state is one settling round away from it (par/lev
	// pointers only take their steady values once the token has
	// visited everyone).
	seen := make(map[string]bool)
	for i := 0; ; i++ {
		if i > 3*(40*(g.N()+g.M())+40) {
			t.Fatal("no steady cycle entry within the recording budget")
		}
		key := string(sub.Snapshot())
		if seen[key] {
			break
		}
		seen[key] = true
		mv := soleMove()
		if !d.Execute(mv.Node, mv.Action) {
			t.Fatal("settling move refused to fire")
		}
	}
	// Phase 2: record the Max vector at every cycle configuration.
	cycle := make(map[string][]int)
	start := string(sub.Snapshot())
	for i := 0; ; i++ {
		if i > 40*(g.N()+g.M())+40 {
			t.Fatal("no cycle within the recording budget")
		}
		mx := make([]int, g.N())
		for v := 0; v < g.N(); v++ {
			mx[v] = d.MaxOf(graph.NodeID(v))
		}
		cycle[string(sub.Snapshot())] = mx
		mv := soleMove()
		if !d.Execute(mv.Node, mv.Action) {
			t.Fatal("recorded move refused to fire")
		}
		if string(sub.Snapshot()) == start {
			return cycle
		}
	}
}

// oldLegitimate is the pre-invariant predicate, verbatim: substrate
// legitimate, names equal the reference naming, the substrate snapshot
// on the recorded cycle with the recorded Max vector, labels valid.
func oldLegitimate(d *DFTNO, cycle map[string][]int) bool {
	if !d.sub.Legitimate() {
		return false
	}
	for v := 0; v < d.g.N(); v++ {
		if d.eta[v] != d.ref.Name(graph.NodeID(v)) {
			return false
		}
	}
	wantMax, ok := cycle[string(d.sub.Snapshot())]
	if !ok {
		return false
	}
	for v := 0; v < d.g.N(); v++ {
		if d.max[v] != wantMax[v] {
			return false
		}
		if d.invalidEdgeLabel(graph.NodeID(v)) {
			return false
		}
	}
	return true
}

// TestDFTNOLegitimacyMatchesRecordedCycle is the differential proof
// that the recomputable cycle invariant decides the predicate the
// O(n²)-byte recorded-cycle map used to, up to dead state: over the
// entire reachable configuration space from randomized seeds (the same
// exploration the model checker performs),
//
//  1. every recorded-cycle-legitimate configuration satisfies the
//     invariant (no legitimate configuration was lost), and
//  2. every configuration the invariant accepts but the map rejected
//     differs from the recorded orbit only in dead variables — the
//     par/lev leftovers of unvisited (or between-rounds) processors,
//     which the next round overwrites without ever reading. Witness:
//     the deterministic execution from such a configuration stays
//     invariant-legitimate at every step and lands exactly on the
//     recorded orbit within one circulation round.
//
// The map pinned those dead variables because it compared whole
// snapshots; the invariant deliberately quotients them away, exactly
// as the substrate's own Legitimate() does between rounds. Closure and
// convergence of the (slightly larger) legitimate set are machine-
// verified exhaustively by TestDFTNOModelCheck.
func TestDFTNOLegitimacyMatchesRecordedCycle(t *testing.T) {
	t.Parallel()
	graphs := map[string]*graph.Graph{
		"path3":    graph.Path(3),
		"triangle": graph.Complete(3),
		"ring4":    graph.Ring(4),
	}
	maxStates := 250000
	seedCount := 20
	if testing.Short() {
		delete(graphs, "ring4")
		maxStates = 60000
		seedCount = 8
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sub, err := token.NewCirculator(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDFTNO(g, sub, 0)
			if err != nil {
				t.Fatal(err)
			}
			cycle := recordedCycle(t, d)

			rng := rand.New(rand.NewSource(13))
			seen := make(map[string]bool)
			var queue [][]byte
			push := func(snap []byte) {
				key := string(snap)
				if !seen[key] {
					seen[key] = true
					queue = append(queue, snap)
				}
			}
			push(d.Snapshot())
			for i := 0; i < seedCount; i++ {
				d.Randomize(rng)
				push(d.Snapshot())
			}
			var buf []program.ActionID
			checked, widened := 0, 0
			roundBudget := 2*len(cycle) + 2
			for len(queue) > 0 && checked < maxStates {
				snap := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				if err := d.Restore(snap); err != nil {
					t.Fatal(err)
				}
				inv, rec := d.Legitimate(), oldLegitimate(d, cycle)
				if rec && !inv {
					t.Fatal("invariant rejects a recorded-cycle-legitimate configuration")
				}
				if inv && !rec {
					// Dead-state check: the run must stay legitimate
					// and join the recorded orbit within one round.
					widened++
					joined := false
					for i := 0; i < roundBudget; i++ {
						mv := soleLegitimateMove(t, d)
						if !d.Execute(mv.Node, mv.Action) {
							t.Fatal("legitimate move refused to fire")
						}
						if !d.Legitimate() {
							t.Fatal("invariant-legitimate configuration escaped the legitimate set")
						}
						if oldLegitimate(d, cycle) {
							joined = true
							break
						}
					}
					if !joined {
						t.Fatalf("invariant-legitimate configuration did not join the recorded orbit within %d moves", roundBudget)
					}
					if err := d.Restore(snap); err != nil {
						t.Fatal(err)
					}
				}
				checked++
				var moves []program.Move
				for v := 0; v < g.N(); v++ {
					buf = d.Enabled(graph.NodeID(v), buf[:0])
					for _, a := range buf {
						moves = append(moves, program.Move{Node: graph.NodeID(v), Action: a})
					}
				}
				for _, mv := range moves {
					if err := d.Restore(snap); err != nil {
						t.Fatal(err)
					}
					if !d.Execute(mv.Node, mv.Action) {
						t.Fatalf("enabled move (%d,%d) refused", mv.Node, mv.Action)
					}
					push(d.Snapshot())
				}
			}
			t.Logf("%s: %d states compared, %d on the dead-state quotient (frontier %d unexplored)", name, checked, widened, len(queue))
		})
	}
}

// TestDFTNOPositionInvariantTracksIdealCycle drives the composed
// system deterministically through several full rounds and asserts
// the invariant holds at every configuration of the ideal cycle —
// the closure half of the invariant's correctness, config by config.
func TestDFTNOPositionInvariantTracksIdealCycle(t *testing.T) {
	t.Parallel()
	for name, g := range map[string]*graph.Graph{
		"grid3x3":  graph.Grid(3, 3),
		"lollipop": graph.Lollipop(4, 4),
		"wheel7":   graph.Wheel(7),
	} {
		g := g
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sub, err := token.NewCirculator(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDFTNO(g, sub, 0)
			if err != nil {
				t.Fatal(err)
			}
			sys := program.NewSystem(d, daemon.NewDeterministic())
			for i := 0; i < 6*(2*g.N()+2); i++ {
				if !d.Legitimate() {
					t.Fatalf("invariant broken at step %d of the ideal cycle", i)
				}
				if _, err := sys.Step(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSTNOWitnessZeroAllocGuards pins the nameInvalid scratch reuse:
// evaluating every guard of a stabilized STNO allocates nothing.
func TestSTNOWitnessZeroAllocGuards(t *testing.T) {
	g := graph.Grid(4, 4)
	sub, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := program.NewSystem(s, daemon.NewCentral(1))
	if res, err := sys.RunUntilLegitimate(int64(1000 * (g.N() + g.M()))); err != nil || !res.Converged {
		t.Fatalf("setup: %v %+v", err, res)
	}
	var buf []program.ActionID
	allocs := testing.AllocsPerRun(50, func() {
		for v := 0; v < g.N(); v++ {
			buf = s.Enabled(graph.NodeID(v), buf[:0])
		}
	})
	if allocs != 0 {
		t.Errorf("full guard sweep allocates %.1f times, want 0", allocs)
	}
}

// TestDFTNOConstructionIsSnapshotFree pins the constructor rewrite:
// building the stack on a large graph must not materialise recorded
// snapshots (the deleted map cost O(n²) bytes — ~1.4 GB transient on
// this 64×64 grid), and the result must start legitimate with the
// DFS-preorder naming.
func TestDFTNOConstructionIsSnapshotFree(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph construction skipped in short mode")
	}
	t.Parallel()
	g := graph.Grid(64, 64)
	sub, err := token.NewCirculator(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDFTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Legitimate() {
		t.Fatal("freshly constructed 64×64 DFTNO not legitimate")
	}
	order, _ := graph.DFSPreorder(g, 0)
	names := d.ReferenceNames()
	for idx, v := range order {
		if names[v] != idx {
			t.Fatalf("node %d named %d, want preorder index %d", v, names[v], idx)
		}
	}
	// Spot-check SP2 on a few nodes instead of allocating a full
	// Labeling copy.
	for _, v := range []graph.NodeID{0, 63, 4095} {
		for port, q := range g.Neighbors(v) {
			if d.pi[v][port] != sod.ChordalLabel(d.eta[v], d.eta[q], d.modulus) {
				t.Fatalf("edge label at node %d port %d violates SP2", v, port)
			}
		}
	}
}
