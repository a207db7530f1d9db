package program_test

// Parallel stepper tests: every execution of the sharded parallel
// engine (program.ParallelSystem) must be bit-identical to *some*
// legal serial interleaving of the same moves — the canonical one its
// trace records. The serial oracle replays the trace through
// Protocol.Execute on a shadow instance restored to the same initial
// configuration: every move must fire (its guard held at its turn in
// the serialization), and the final snapshots must match byte for
// byte. The suite crosses protocol stacks (radius-1 and radius-2
// declarations) with topologies and worker counts, checks per-shard
// RNG determinism, and composes the engine with topology churn —
// running it under -race is part of the CI matrix (GOMAXPROCS 2 and
// 8), because ownership violations manifest as either oracle
// divergence or detector reports.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
)

// parallelProtos is the differential subset: three stacks with default
// radius 1 plus the radius-2 STNO-over-DFS case.
func parallelProtos() []string {
	return []string{"dftc", "bfstree", "dftno/dftc", "stno/dfstree"}
}

func parallelTopologies(t *testing.T) map[string]func() *graph.Graph {
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
		"ring:24":  build("ring:24"),
		"grid:6x6": build("grid:6x6"),
	}
}

// replayOracle verifies that trace is a legal serial execution from
// the initial snapshot and reproduces the final snapshot.
func replayOracle(t *testing.T, shadow diffTarget, initial, final []byte, trace []program.Move) {
	t.Helper()
	if err := shadow.Restore(initial); err != nil {
		t.Fatalf("oracle restore: %v", err)
	}
	for i, mv := range trace {
		if !shadow.Execute(mv.Node, mv.Action) {
			t.Fatalf("oracle: move %d/%d (%v@%d) did not fire — not a legal serial interleaving",
				i, len(trace), mv.Action, mv.Node)
		}
	}
	if !bytes.Equal(shadow.Snapshot(), final) {
		t.Fatalf("oracle: serial replay of %d moves diverges from the parallel final configuration", len(trace))
	}
}

// TestParallelSerialOracle is the differential acceptance suite:
// protocols × topologies × worker counts, each run to legitimacy and
// replayed through the serial oracle.
func TestParallelSerialOracle(t *testing.T) {
	workerCounts := []int{1, 2, 3, 8}
	if testing.Short() {
		workerCounts = []int{2, 8}
	}
	builders := protoBuilders()
	for _, pname := range parallelProtos() {
		for gname, mkGraph := range parallelTopologies(t) {
			for _, w := range workerCounts {
				t.Run(fmt.Sprintf("%s/%s/w%d", pname, gname, w), func(t *testing.T) {
					g := mkGraph()
					p, err := builders[pname](g)
					if err != nil {
						t.Fatal(err)
					}
					p.Randomize(rand.New(rand.NewSource(int64(11*w + len(gname)))))
					initial := p.Snapshot()
					ps := program.NewParallelSystem(p, program.ParallelConfig{
						Workers: w, Seed: 99, Record: true,
					})
					budget := int64(2000 * (g.N() + g.M()))
					res, err := ps.RunUntilLegitimate(budget)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatalf("no convergence within %d parallel steps (%d moves)", budget, res.Moves)
					}
					shadow, err := builders[pname](g)
					if err != nil {
						t.Fatal(err)
					}
					replayOracle(t, shadow, initial, p.Snapshot(), ps.Trace())
					if int64(len(ps.Trace())) != ps.Moves() {
						t.Fatalf("trace length %d != move count %d", len(ps.Trace()), ps.Moves())
					}
					if ps.WorkUnits() < ps.SpanUnits() {
						t.Fatalf("work %d < span %d — critical path exceeds total work", ps.WorkUnits(), ps.SpanUnits())
					}
				})
			}
		}
	}
}

// TestParallelDeterminism pins the per-shard RNG contract: same seed +
// same worker count ⇒ bit-identical trace and final configuration;
// the sub-maximal activation probability makes every shard consume
// randomness on every sweep, so a desynchronised stream cannot hide.
func TestParallelDeterminism(t *testing.T) {
	builders := protoBuilders()
	for _, pname := range []string{"bfstree", "dftno/dftc"} {
		t.Run(pname, func(t *testing.T) {
			g1, err := graph.Named("grid:5x5")
			if err != nil {
				t.Fatal(err)
			}
			g2, _ := graph.Named("grid:5x5")
			p1, err := builders[pname](g1)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := builders[pname](g2)
			if err != nil {
				t.Fatal(err)
			}
			p1.Randomize(rand.New(rand.NewSource(5)))
			if err := p2.Restore(p1.Snapshot()); err != nil {
				t.Fatal(err)
			}
			cfg := program.ParallelConfig{Workers: 3, Seed: 42, Activation: 0.6, Record: true}
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
				t.Fatal("equal seeds and worker counts produced different configurations")
			}
		})
	}
}

// TestParallelWorkerCountsDiverge documents the other half of the
// determinism contract: different worker counts are different (still
// legal) schedules. Both runs must be oracle-accepted even though
// their traces may differ.
func TestParallelWorkerCountsDiverge(t *testing.T) {
	builders := protoBuilders()
	g, err := graph.Named("grid:5x5")
	if err != nil {
		t.Fatal(err)
	}
	p, err := builders["bfstree"](g)
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(9)))
	initial := p.Snapshot()
	for _, w := range []int{1, 4} {
		if err := p.Restore(initial); err != nil {
			t.Fatal(err)
		}
		ps := program.NewParallelSystem(p, program.ParallelConfig{Workers: w, Seed: 4, Record: true})
		res, err := ps.RunUntilLegitimate(int64(2000 * (g.N() + g.M())))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("w=%d: no convergence", w)
		}
		shadow, err := builders["bfstree"](g)
		if err != nil {
			t.Fatal(err)
		}
		replayOracle(t, shadow, initial, p.Snapshot(), ps.Trace())
	}
}

// TestParallelHoldsForSurvivesIdleSteps: with Activation < 1 a step
// can activate nobody while processors stay enabled. HoldsFor must
// keep stepping through such idle steps and end early only at a
// terminal configuration (EnabledCount() == 0).
func TestParallelHoldsForSurvivesIdleSteps(t *testing.T) {
	const budget = 50
	g, err := graph.Named("ring:6")
	if err != nil {
		t.Fatal(err)
	}
	p, err := protoBuilders()["bfstree"](g)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 200; seed++ {
		p.Randomize(rand.New(rand.NewSource(seed)))
		ps := program.NewParallelSystem(p, program.ParallelConfig{Workers: 2, Seed: seed, Activation: 0.2})
		ok, err := ps.HoldsFor(func() bool { return true }, budget)
		if err != nil || !ok {
			t.Fatalf("seed %d: HoldsFor(true) = %v, %v", seed, ok, err)
		}
		if ps.Steps() < budget && ps.EnabledCount() != 0 {
			t.Fatalf("seed %d: HoldsFor ended after %d of %d steps with %d processors still enabled",
				seed, ps.Steps(), budget, ps.EnabledCount())
		}
	}
}

// guardCache is the surface cacheInvariant reads; both engines have it.
type guardCache interface {
	Protocol() program.Protocol
	EnabledCount() int
	EnabledNodes([]graph.NodeID) []graph.NodeID
}

// cacheInvariant asserts the engine's enabled set equals a fresh full
// guard scan, node by node — the dirty-set invariant, observable
// through the public surface.
func cacheInvariant(t *testing.T, e guardCache) {
	t.Helper()
	p := e.Protocol()
	g := p.Graph()
	var want []graph.NodeID
	var buf []program.ActionID
	for v := 0; v < g.N(); v++ {
		if !g.Alive(graph.NodeID(v)) {
			continue
		}
		if buf = p.Enabled(graph.NodeID(v), buf[:0]); len(buf) > 0 {
			want = append(want, graph.NodeID(v))
		}
	}
	got := e.EnabledNodes(nil)
	if !slices.Equal(got, want) {
		t.Fatalf("cached enabled nodes %v != fresh scan %v", got, want)
	}
	if n := e.EnabledCount(); n != len(want) {
		t.Fatalf("cached enabled count %d != fresh scan %d", n, len(want))
	}
}

// TestParallelChurn composes the parallel engine with topology
// mutations, including id-space growth: steps quiesce the workers, so
// ApplyDelta repairs the cache and the shard classification in place.
// The -race CI matrix runs this at GOMAXPROCS 2 and 8.
func TestParallelChurn(t *testing.T) {
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
	ps := program.NewParallelSystem(p, program.ParallelConfig{Workers: 4, Seed: 17, Record: true})
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
	// Edge flap across a shard boundary region.
	d, err := g.RemoveEdge(11, 12)
	apply(d, err)
	step(3)
	d, err = g.AddEdge(11, 12)
	apply(d, err)
	step(3)
	// Node crash and revive.
	d, err = g.RemoveNode(7)
	apply(d, err)
	step(3)
	id, d := g.AddNode() // revives slot 7
	if id != 7 {
		t.Fatalf("expected revive of slot 7, got %d", id)
	}
	ps.ApplyDelta(d)
	d, err = g.AddEdge(7, 6)
	apply(d, err)
	d, err = g.AddEdge(7, 8)
	apply(d, err)
	step(3)
	// Id-space growth: append two fresh nodes and wire them in. The
	// second append follows an out-of-band corruption and Invalidate,
	// so the bootstrap scan, not ApplyDelta, must size the grown slots.
	for i := 0; i < 2; i++ {
		if i == 1 {
			p.(program.NodeCorruptor).CorruptNode(3, rand.New(rand.NewSource(5)))
			ps.Invalidate()
		}
		nid, d := g.AddNode()
		if int(nid) != 25+i {
			t.Fatalf("expected appended id %d, got %d", 25+i, nid)
		}
		ps.ApplyDelta(d)
		dd, err := g.AddEdge(nid, graph.NodeID(i*10))
		apply(dd, err)
		step(2)
		cacheInvariant(t, ps)
	}
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

// parallelCounts is one run's counted units plus an FNV-1a hash of its
// recorded trace.
type parallelCounts struct {
	Moves, Steps, Rounds, Work, Span, SpanB int64
	Trace                                   uint64
}

// TestParallelCountedUnitsPinned pins the counted units exactly: a
// radius-1 and a radius-2 stack, waves off and on, full and half
// activation, each through an edge flap at a shard seam and an
// out-of-band corruption with Invalidate. The expected values were
// recorded from the engine with a separate serialized boundary pass;
// the single-node-wave phase B must reproduce them move for move and
// unit for unit. benchtab -regress guards the same numbers only within
// a 2x tolerance.
func TestParallelCountedUnitsPinned(t *testing.T) {
	want := map[string]parallelCounts{
		"bfstree/waves=false/act=1":        {464, 15, 15, 2572, 2166, 1262, 11123989951658578030},
		"bfstree/waves=false/act=0.5":      {446, 51, 12, 2478, 2078, 1331, 8093110631213395347},
		"bfstree/waves=true/act=1":         {483, 19, 19, 2676, 1610, 647, 11177460183959603191},
		"bfstree/waves=true/act=0.5":       {487, 60, 12, 2696, 1785, 957, 2352277080378556620},
		"stno/dfstree/waves=false/act=1":   {11460, 244, 244, 78405, 75369, 67812, 9696390277018638084},
		"stno/dfstree/waves=false/act=0.5": {5389, 325, 62, 35847, 34882, 30601, 18429753003805543547},
		"stno/dfstree/waves=true/act=1":    {10102, 217, 217, 68833, 38608, 31771, 13953510154488549376},
		"stno/dfstree/waves=true/act=0.5":  {10424, 514, 84, 71497, 49320, 41663, 13242311374484028970},
	}
	builders := protoBuilders()
	for _, pname := range []string{"bfstree", "stno/dfstree"} {
		for _, waves := range []bool{false, true} {
			for _, act := range []float64{1, 0.5} {
				name := fmt.Sprintf("%s/waves=%v/act=%v", pname, waves, act)
				t.Run(name, func(t *testing.T) {
					g, err := graph.Named("grid:8x8")
					if err != nil {
						t.Fatal(err)
					}
					p, err := builders[pname](g)
					if err != nil {
						t.Fatal(err)
					}
					p.Randomize(rand.New(rand.NewSource(21)))
					ps := program.NewParallelSystem(p, program.ParallelConfig{
						Workers: 3, Seed: 8, Activation: act, FrontierWaves: waves, Record: true,
					})
					step := func(k int) {
						t.Helper()
						for i := 0; i < k; i++ {
							if _, err := ps.Step(); err != nil {
								t.Fatal(err)
							}
						}
					}
					step(4)
					// Nodes 20 and 28 sit on the seam between shards 0
					// and 1 (bounds 0, 21, 42, 64).
					d, err := g.RemoveEdge(20, 28)
					if err != nil {
						t.Fatal(err)
					}
					ps.ApplyDelta(d)
					step(3)
					if d, err = g.AddEdge(20, 28); err != nil {
						t.Fatal(err)
					}
					ps.ApplyDelta(d)
					step(3)
					p.Randomize(rand.New(rand.NewSource(22)))
					ps.Invalidate()
					res, err := ps.RunUntilLegitimate(int64(2000 * (g.N() + g.M())))
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatal("no convergence after the flap and the corruption")
					}
					h := fnv.New64a()
					for _, mv := range ps.Trace() {
						fmt.Fprintf(h, "%d:%d;", mv.Node, mv.Action)
					}
					got := parallelCounts{
						Moves: ps.Moves(), Steps: ps.Steps(), Rounds: ps.Rounds(),
						Work: ps.WorkUnits(), Span: ps.SpanUnits(), SpanB: ps.BoundarySpanUnits(),
						Trace: h.Sum64(),
					}
					if got != want[name] {
						t.Fatalf("counted units %+v, want %+v", got, want[name])
					}
				})
			}
		}
	}
}

// TestSystemGrowthAppend locksteps the serial incremental scheduler
// against the full-scan oracle across an AddNode growth campaign — the
// append growth path must keep the caches and the round accounting
// bit-identical to a full rescan.
func TestSystemGrowthAppend(t *testing.T) {
	builders := protoBuilders()
	gi, err := graph.Named("ring:8")
	if err != nil {
		t.Fatal(err)
	}
	gf, _ := graph.Named("ring:8")
	pi, err := builders["bfstree"](gi)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := builders["bfstree"](gf)
	if err != nil {
		t.Fatal(err)
	}
	pi.Randomize(rand.New(rand.NewSource(21)))
	if err := pf.Restore(pi.Snapshot()); err != nil {
		t.Fatal(err)
	}
	inc := program.NewSystem(pi, daemon.NewSynchronous(77))
	full := program.NewSystemFullScan(pf, daemon.NewSynchronous(77))
	stepBoth := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			ni, err := inc.Step()
			if err != nil {
				t.Fatal(err)
			}
			nf, err := full.Step()
			if err != nil {
				t.Fatal(err)
			}
			if ni != nf {
				t.Fatalf("fired %d vs %d moves", ni, nf)
			}
		}
	}
	stepBoth(6)
	for round := 0; round < 4; round++ {
		idI, dI := gi.AddNode()
		idF, dF := gf.AddNode()
		if idI != idF {
			t.Fatalf("divergent ids %d vs %d", idI, idF)
		}
		inc.ApplyDelta(dI)
		full.ApplyDelta(dF)
		anchor := graph.NodeID(round * 2)
		dI2, err := gi.AddEdge(idI, anchor)
		if err != nil {
			t.Fatal(err)
		}
		dF2, _ := gf.AddEdge(idF, anchor)
		inc.ApplyDelta(dI2)
		full.ApplyDelta(dF2)
		stepBoth(5)
		if inc.EnabledCount() != full.EnabledCount() {
			t.Fatalf("enabled counts diverge: %d vs %d", inc.EnabledCount(), full.EnabledCount())
		}
		cacheInvariant(t, inc)
	}
	if inc.Moves() != full.Moves() || inc.Rounds() != full.Rounds() {
		t.Fatalf("accounting diverges: moves %d/%d rounds %d/%d",
			inc.Moves(), full.Moves(), inc.Rounds(), full.Rounds())
	}
	if !bytes.Equal(pi.Snapshot(), pf.Snapshot()) {
		t.Fatal("growth campaign diverged from the full-scan oracle")
	}
}

// TestParallelInvalidateAllocatesNothing: re-initialising reuses the
// shard geometry's arrays, so on a warm 2-worker engine with waves off
// Invalidate plus one Step allocates nothing, as on System. The
// configuration is legitimate, so the Step is the re-initialisation
// and its guard rescan, and no phase goroutine starts.
func TestParallelInvalidateAllocatesNothing(t *testing.T) {
	g := graph.Grid(32, 32)
	p, err := protoBuilders()["bfstree"](g)
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(3)))
	ps := program.NewParallelSystem(p, program.ParallelConfig{Workers: 2, Seed: 1})
	if res, err := ps.RunUntilLegitimate(int64(1000 * g.N())); err != nil || !res.Converged {
		t.Fatalf("setup: %v %+v", err, res)
	}
	step := func() {
		ps.Invalidate()
		if _, err := ps.Step(); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if a := testing.AllocsPerRun(20, step); a != 0 {
		t.Fatalf("Invalidate plus Step allocates %v per call, want 0", a)
	}
}
