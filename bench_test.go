package netorient_test

import (
	"math/rand"
	"testing"

	"netorient/internal/core"
	"netorient/internal/daemon"
	"netorient/internal/experiments"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
	"netorient/internal/token"
)

// benchCfg is the configuration the experiment benches run under;
// quick mode keeps -bench runs short while exercising every code
// path of the harness. cmd/benchtab regenerates the full tables.
func benchCfg(seed int64) experiments.Config {
	return experiments.Config{Seed: seed, Quick: true}
}

// runExperiment drives one experiment once per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := e.Run(benchCfg(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if tb.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// One benchmark per paper artefact (the index is experiments.All).

// BenchmarkF1Chordal regenerates Figure 2.2.1 (chordal SoD example).
func BenchmarkF1Chordal(b *testing.B) { runExperiment(b, "F1") }

// BenchmarkF2DFTNOTrace regenerates Figure 3.1.1 (DFTNO labeling trace).
func BenchmarkF2DFTNOTrace(b *testing.B) { runExperiment(b, "F2") }

// BenchmarkF3STNOTrace regenerates Figure 4.1.1 (STNO weights/naming).
func BenchmarkF3STNOTrace(b *testing.B) { runExperiment(b, "F3") }

// BenchmarkT1DFTNOScaling regenerates the §3.2.3 O(n) claim.
func BenchmarkT1DFTNOScaling(b *testing.B) { runExperiment(b, "T1") }

// BenchmarkT2STNOHeight regenerates the §4.2.3 O(h) claim.
func BenchmarkT2STNOHeight(b *testing.B) { runExperiment(b, "T2") }

// BenchmarkT3Space regenerates the space-accounting comparison.
func BenchmarkT3Space(b *testing.B) { runExperiment(b, "T3") }

// BenchmarkT4Recovery regenerates the fault-recovery table.
func BenchmarkT4Recovery(b *testing.B) { runExperiment(b, "T4") }

// BenchmarkT5SoDBenefit regenerates the message-complexity table.
func BenchmarkT5SoDBenefit(b *testing.B) { runExperiment(b, "T5") }

// BenchmarkT6Equivalence regenerates the DFS-tree/DFTNO naming check.
func BenchmarkT6Equivalence(b *testing.B) { runExperiment(b, "T6") }

// BenchmarkT7Daemons regenerates the daemon ablation.
func BenchmarkT7Daemons(b *testing.B) { runExperiment(b, "T7") }

// BenchmarkT8Orderings regenerates the ψ-ordering ablation.
func BenchmarkT8Orderings(b *testing.B) { runExperiment(b, "T8") }

// BenchmarkT9Election regenerates the election comparison.
func BenchmarkT9Election(b *testing.B) { runExperiment(b, "T9") }

// BenchmarkT10Routing regenerates the greedy-routing stretch table.
func BenchmarkT10Routing(b *testing.B) { runExperiment(b, "T10") }

// BenchmarkT11Scheduler regenerates the incremental-vs-full-scan
// scheduler comparison (BENCH_scheduler.json holds the committed
// baseline from a full benchtab run).
func BenchmarkT11Scheduler(b *testing.B) { runExperiment(b, "T11") }

// BenchmarkT12Witness regenerates the witness-vs-scan legitimacy
// comparison (also committed in BENCH_scheduler.json).
func BenchmarkT12Witness(b *testing.B) { runExperiment(b, "T12") }

// BenchmarkT13Churn regenerates the dynamic-topology comparison —
// localized ApplyDelta invalidation vs whole-system Invalidate and
// churn-rate recovery (also committed in BENCH_scheduler.json).
func BenchmarkT13Churn(b *testing.B) { runExperiment(b, "T13") }

// Micro-benchmarks of the moving parts, with shape metrics reported
// per operation.

// BenchmarkTokenRound measures one full circulation round of the
// self-stabilizing token layer on a 64-ring.
func BenchmarkTokenRound(b *testing.B) {
	g := graph.Ring(64)
	c, err := token.NewCirculator(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	sys := program.NewSystem(c, daemon.NewDeterministic())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := c.Round() + 1
		for c.Round() < target || !c.Done(0) {
			if _, err := sys.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(sys.Moves())/float64(b.N), "moves/round")
}

// BenchmarkDFTNOStabilizeFromRandom measures full-stack stabilization
// on a 4x4 grid from arbitrary configurations.
func BenchmarkDFTNOStabilizeFromRandom(b *testing.B) {
	g := graph.Grid(4, 4)
	sub, err := token.NewCirculator(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.NewDFTNO(g, sub, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Randomize(rng)
		sys := program.NewSystem(d, daemon.NewCentral(int64(i)))
		res, err := sys.RunUntilLegitimate(1 << 24)
		if err != nil || !res.Converged {
			b.Fatalf("no convergence: %v", err)
		}
		total += res.Moves
	}
	b.ReportMetric(float64(total)/float64(b.N), "moves/stabilization")
}

// BenchmarkSTNOStabilizeFromRandom is the STNO counterpart.
func BenchmarkSTNOStabilizeFromRandom(b *testing.B) {
	g := graph.Grid(4, 4)
	sub, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.NewSTNO(g, sub, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Randomize(rng)
		sys := program.NewSystem(s, daemon.NewCentral(int64(i)))
		res, err := sys.RunUntilLegitimate(1 << 24)
		if err != nil || !res.Converged {
			b.Fatalf("no convergence: %v", err)
		}
		total += res.Moves
	}
	b.ReportMetric(float64(total)/float64(b.N), "moves/stabilization")
}

// newGridDFTNO builds the full DFTNO stack on an r×c grid.
func newGridDFTNO(b *testing.B, r, c int) *core.DFTNO {
	b.Helper()
	g := graph.Grid(r, c)
	sub, err := token.NewCirculator(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.NewDFTNO(g, sub, 0)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchSteps drives b.N daemon steps of sys mid-stabilization,
// re-randomizing (outside the timer) in the unlikely event the
// configuration goes terminal.
func benchSteps(b *testing.B, sys *program.System, d *core.DFTNO, rng *rand.Rand) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := sys.Step()
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.StopTimer()
			d.Randomize(rng)
			sys.Invalidate()
			b.StartTimer()
		}
	}
}

// BenchmarkStepIncremental measures one daemon step of the default
// event-driven scheduler on a 64×64 grid (n=4096) mid-stabilization:
// guard work is confined to the dirty set of the last move and the
// enabled set is maintained as a Fenwick index (O(log n) per
// enabledness flip, no candidate-slice rebuild), so the per-step cost
// is O(Δ·log n) and steady-state stepping allocates nothing.
func BenchmarkStepIncremental(b *testing.B) {
	d := newGridDFTNO(b, 64, 64)
	rng := rand.New(rand.NewSource(3))
	d.Randomize(rng)
	sys := program.NewSystem(d, daemon.NewCentral(7))
	if _, err := sys.Step(); err != nil { // pay the bootstrap scan once
		b.Fatal(err)
	}
	benchSteps(b, sys, d, rng)
}

// BenchmarkStepFullScan is the same workload under the legacy oracle,
// which re-evaluates all 4096 nodes' guards every step — the ≥5×
// (in practice orders-of-magnitude) comparison point recorded in
// CHANGES.md.
func BenchmarkStepFullScan(b *testing.B) {
	d := newGridDFTNO(b, 64, 64)
	rng := rand.New(rand.NewSource(3))
	d.Randomize(rng)
	sys := program.NewSystemFullScan(d, daemon.NewCentral(7))
	if _, err := sys.Step(); err != nil {
		b.Fatal(err)
	}
	benchSteps(b, sys, d, rng)
}

// BenchmarkStepIncrementalSteadyState measures the pure steady state:
// the stabilized token circulation on a 64-ring steps forever with
// exactly one enabled processor, and the incremental scheduler must
// not allocate at all.
func BenchmarkStepIncrementalSteadyState(b *testing.B) {
	g := graph.Ring(64)
	c, err := token.NewCirculator(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	sys := program.NewSystem(c, daemon.NewDeterministic())
	if _, err := sys.Step(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDFTNOStabilizeFromRandomFullScan is the 4×4 stabilization
// workload above under the legacy full-scan oracle, for an in-repo
// end-to-end before/after (the grid is small enough that the oracle
// finishes; on the 64×64 grid it would take hours).
func BenchmarkDFTNOStabilizeFromRandomFullScan(b *testing.B) {
	d := newGridDFTNO(b, 4, 4)
	rng := rand.New(rand.NewSource(1))
	var total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Randomize(rng)
		sys := program.NewSystemFullScan(d, daemon.NewCentral(int64(i)))
		res, err := sys.RunUntilLegitimate(1 << 24)
		if err != nil || !res.Converged {
			b.Fatalf("no convergence: %v", err)
		}
		total += res.Moves
	}
	b.ReportMetric(float64(total)/float64(b.N), "moves/stabilization")
}

// BenchmarkDFTNOStabilizeLarge runs the full stack to legitimacy from
// an arbitrary configuration on a 64×64 grid (n=4096, m=8064) — the
// scale the incremental scheduler exists for. Skipped under -short.
func BenchmarkDFTNOStabilizeLarge(b *testing.B) {
	if testing.Short() {
		b.Skip("large-graph stabilization skipped in short mode")
	}
	d := newGridDFTNO(b, 64, 64)
	rng := rand.New(rand.NewSource(1))
	var total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Randomize(rng)
		sys := program.NewSystem(d, daemon.NewCentral(int64(i)))
		res, err := sys.RunUntilLegitimate(1 << 40)
		if err != nil || !res.Converged {
			b.Fatalf("no convergence: %v", err)
		}
		total += res.Moves
	}
	b.ReportMetric(float64(total)/float64(b.N), "moves/stabilization")
}

// benchFrontierHeavyStep drives the sharded parallel stepper on the
// frontier-heavy regime where the phase-B seam cost is worst: the BFS
// spanning tree on a BFS-relabeled Barabási–Albert graph at n = 2¹⁸
// (expander-like, so nearly every node's influence ball crosses a
// shard boundary). Graph and stepper construction stay outside the
// timer; each iteration is one distributed-daemon step, and the
// configuration is re-randomized off the clock if it goes terminal.
// The waves-off/waves-on pair benchmarks the serialized boundary pass
// against batched wave execution; the committed T17 rows in
// BENCH_scheduler.json hold the counted (hardware-independent)
// speedups the regression gate checks.
func benchFrontierHeavyStep(b *testing.B, waves bool) {
	b.Helper()
	base, err := graph.Barabasi(1<<18, 3, rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	order, err := graph.BFSOrder(base, 0)
	if err != nil {
		b.Fatal(err)
	}
	g, inv, err := base.ReorderNodes(order)
	if err != nil {
		b.Fatal(err)
	}
	p, err := spantree.NewBFSTree(g, inv[0])
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	p.Randomize(rng)
	ps := program.NewParallelSystem(p, program.ParallelConfig{
		Workers: 8, Seed: 11, FrontierWaves: waves,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := ps.Step()
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.StopTimer()
			p.Randomize(rng)
			ps.Invalidate()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(ps.FrontierSize()), "frontier")
	b.ReportMetric(float64(ps.BoundarySpanUnits())/float64(b.N), "seamspan/step")
}

// BenchmarkParallelStepFrontierHeavy measures the serialized phase-B
// boundary pass on the fat-frontier barabási workload.
func BenchmarkParallelStepFrontierHeavy(b *testing.B) { benchFrontierHeavyStep(b, false) }

// BenchmarkParallelStepFrontierWaves is the same workload with batched
// wave execution of phase B (distance-2R coloring of the frontier).
// Compare the seamspan/step metric, not ns/op: the counted seam span
// is what an ideal W-core machine executes serially, while wall-clock
// per step also pays the per-wave goroutine dispatch, which dominates
// on an oversubscribed CI box.
func BenchmarkParallelStepFrontierWaves(b *testing.B) { benchFrontierHeavyStep(b, true) }

// BenchmarkEnabledScan measures guard evaluation over a whole
// configuration — the simulator's hot path.
func BenchmarkEnabledScan(b *testing.B) {
	g := graph.Grid(8, 8)
	sub, err := token.NewCirculator(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.NewDFTNO(g, sub, 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf []program.ActionID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < g.N(); v++ {
			buf = d.Enabled(graph.NodeID(v), buf[:0])
		}
	}
}

// BenchmarkSnapshot measures configuration capture, the model
// checker's hot path.
func BenchmarkSnapshot(b *testing.B) {
	g := graph.Grid(8, 8)
	c, err := token.NewCirculator(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.Snapshot()) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
