package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"netorient/internal/core"
	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
	"netorient/internal/token"
)

// stack is one protocol stack on one graph, driven by one engine.
type stack struct {
	kind  string           // stack and topology, e.g. "dftno/grid"
	proto program.Protocol // the bare stack; the engine may drive a probe
	eng   program.Stepper
	// budget bounds the steps of one operation; running out of it is
	// a failed operation.
	budget int64
}

// legitimate is the full O(n) legitimacy predicate, evaluated on the
// bare stack so that output checks stay out of the probe's counts.
func (s *stack) legitimate() bool { return s.proto.(program.Legitimacy).Legitimate() }

// newOrientation builds DFTNO over a token circulator ("dftno") or
// STNO over a BFS spanning tree ("stno") on g, rooted at root.
func newOrientation(name string, g *graph.Graph, root graph.NodeID) (program.Protocol, int, error) {
	switch name {
	case "dftno":
		sub, err := token.NewCirculator(g, root)
		if err != nil {
			return nil, 0, err
		}
		p, err := core.NewDFTNO(g, sub, 0)
		return p, layerToken, err
	case "stno":
		sub, err := spantree.NewBFSTree(g, root)
		if err != nil {
			return nil, 0, err
		}
		p, err := core.NewSTNO(g, sub, 0)
		return p, layerSpantree, err
	}
	return nil, 0, fmt.Errorf("unknown stack %q", name)
}

// setupSeed fixes what set-up draws: the random graphs of the stabilize
// and parallel workloads, and the configurations and daemon streams of
// every workload's warm-up. The workload seed varies the configurations,
// schedules and faults of the timed operations, not the networks, so
// that runs on different seeds time the same kind of work, and set-up
// does the same work on every seed.
const setupSeed = 1

// centralDaemon is a seeded central daemon whose stream the benchmark
// restarts once set-up is done.
type centralDaemon struct{ *daemon.Central }

func newCentralDaemon(seed int64) *centralDaemon {
	return &centralDaemon{daemon.NewCentral(seed)}
}

func (d *centralDaemon) reseed(seed int64) { d.Central = daemon.NewCentral(seed) }

// connectedGnp draws G(n, p) graphs from rng until one is connected.
func connectedGnp(n int, p float64, rng *rand.Rand) (*graph.Graph, error) {
	for try := 0; try < 100; try++ {
		if g, err := graph.Gnp(n, p, rng); err == nil {
			return g, nil
		}
	}
	return nil, fmt.Errorf("no connected gnp(%d, %g) draw in 100 tries", n, p)
}

// bfsRelabel renumbers g's nodes in BFS order from node 0, so that each
// contiguous id range the parallel engine shards on is a compact
// region; it returns the relabeled graph and the old root's new id.
func bfsRelabel(g *graph.Graph) (*graph.Graph, graph.NodeID, error) {
	order, err := graph.BFSOrder(g, 0)
	if err != nil {
		return nil, 0, err
	}
	h, inv, err := g.ReorderNodes(order)
	if err != nil {
		return nil, 0, err
	}
	return h, inv[0], nil
}

// randomStart is the stabilize and parallel workloads: every timed
// operation randomizes one stack's configuration and runs its engine
// until the stack is legitimate.
type randomStart struct {
	stacks   []*stack
	daemons  []*centralDaemon // one per stack on the serial engine
	schedule []int            // stack index of each operation of a batch
	rng      *rand.Rand
	tr       *tracer
	workers  int // 0 for the serial engine
	seed     int64
}

func (w *randomStart) batch(rec *recorder) error {
	for _, i := range w.schedule {
		st := w.stacks[i]
		ev := w.tr.begin("workload", "instance")
		st.proto.(program.Randomizer).Randomize(w.rng)
		sp := w.tr.begin("program", "invalidate")
		st.eng.Invalidate()
		w.tr.end(sp)
		sp = w.tr.begin("program", "run_until_legitimate")
		t0 := time.Now()
		res, err := st.eng.RunUntilLegitimate(st.budget)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		w.tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", st.kind, err)
		}
		rec.op(st.kind, ms, res.Converged)
		if res.Converged {
			sp = w.tr.begin("check", "legitimate")
			rec.check(st.legitimate(), "%s: engine reported legitimacy, Legitimate() disagrees", st.kind)
			w.tr.end(sp)
		}
		w.tr.end(ev)
	}
	return nil
}

func (w *randomStart) counts() map[string]int64 {
	c := map[string]int64{}
	for _, st := range w.stacks {
		c["moves"] += st.eng.Moves()
		c["steps"] += st.eng.Steps()
		c["rounds"] += st.eng.Rounds()
		if ps, ok := st.eng.(*program.ParallelSystem); ok {
			c["work_units"] += ps.WorkUnits()
			c["span_units"] += ps.SpanUnits()
			c["boundary_span_units"] += ps.BoundarySpanUnits()
			c["reshards"] += ps.Reshards()
		}
	}
	return c
}

func (w *randomStart) close() {}

// sizes gives a workload's graphs; each workload has a full and a toy
// size.
type sizes struct {
	gridSide int // grid:side x side
	gnpN     int // gnp:n with p = 2 ln n / n (stabilize)
	baN      int // barabasi:n:3 (parallel)
}

var (
	stabilizeFull = map[string]sizes{"dftno": {gridSide: 23, gnpN: 180}, "stno": {gridSide: 13, gnpN: 140}}
	stabilizeToy  = map[string]sizes{"dftno": {gridSide: 4, gnpN: 16}, "stno": {gridSide: 5, gnpN: 24}}
	parallelFull  = sizes{gridSide: 16, baN: 512}
	parallelToy   = sizes{gridSide: 8, baN: 64}
)

// setupStabilize builds the stabilize workload: DFTNO over a token
// circulator and STNO over a BFS tree, each on a grid and on a G(n,p)
// graph, each driven by the serial engine under a seeded central
// daemon.
func setupStabilize(cfg config) (instance, error) {
	table := stabilizeFull
	if cfg.toy {
		table = stabilizeToy
	}
	w := &randomStart{rng: rand.New(rand.NewSource(cfg.seed)), tr: cfg.tr, seed: cfg.seed}
	topo := rand.New(rand.NewSource(setupSeed))
	for _, name := range []string{"dftno", "stno"} {
		sz := table[name]
		p := 2 * math.Log(float64(sz.gnpN)) / float64(sz.gnpN)
		gnp, err := connectedGnp(sz.gnpN, p, topo)
		if err != nil {
			return nil, err
		}
		for _, tg := range []struct {
			topo string
			g    *graph.Graph
		}{{"grid", graph.Grid(sz.gridSide, sz.gridSide)}, {"gnp", gnp}} {
			st, err := w.newStack(name, tg.topo, tg.g, 0)
			if err != nil {
				return nil, err
			}
			w.stacks = append(w.stacks, st)
		}
	}
	// Two operations per stack and batch, interleaved.
	w.schedule = []int{0, 1, 2, 3, 0, 1, 2, 3}
	return w, w.warm()
}

// setupParallel builds the parallel workload: STNO over a BFS tree on
// BFS-relabeled grid and Barabási–Albert graphs, on the sharded
// parallel engine with one worker per CPU, frontier waves and
// work-driven resharding on.
func setupParallel(cfg config) (instance, error) {
	sz := parallelFull
	if cfg.toy {
		sz = parallelToy
	}
	ba, err := graph.Barabasi(sz.baN, 3, rand.New(rand.NewSource(setupSeed)))
	if err != nil {
		return nil, err
	}
	workers := cfg.workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	w := &randomStart{rng: rand.New(rand.NewSource(cfg.seed)), tr: cfg.tr, seed: cfg.seed, workers: workers}
	for _, tg := range []struct {
		topo string
		g    *graph.Graph
	}{{"grid", graph.Grid(sz.gridSide, sz.gridSide)}, {"barabasi", ba}} {
		g, root, err := bfsRelabel(tg.g)
		if err != nil {
			return nil, err
		}
		st, err := w.newStack("stno", tg.topo, g, root)
		if err != nil {
			return nil, err
		}
		w.stacks = append(w.stacks, st)
	}
	w.schedule = []int{0, 1, 0, 1}
	return w, w.warm()
}

// parallelConfig is the parallel engine's configuration, as orientd
// -workers and CI run it.
func parallelConfig(workers int, seed int64) program.ParallelConfig {
	return program.ParallelConfig{
		Workers:       workers,
		Seed:          seed,
		FrontierWaves: true,
		Reshard:       program.ReshardPolicy{Imbalance: 1.5},
	}
}

// newStack builds one stack and its engine: the serial System under a
// seeded central daemon, or the parallel engine when w has workers.
func (w *randomStart) newStack(name, topo string, g *graph.Graph, root graph.NodeID) (*stack, error) {
	p, sub, err := newOrientation(name, g, root)
	if err != nil {
		return nil, err
	}
	driven, err := w.tr.wrapProtocol(p, sub)
	if err != nil {
		return nil, err
	}
	st := &stack{kind: name + "/" + topo, proto: p, budget: int64(1000 * (g.N() + g.M()))}
	if w.workers > 0 {
		st.eng = program.NewParallelSystem(driven, parallelConfig(w.workers, w.seed))
	} else {
		d := newCentralDaemon(setupSeed + int64(len(w.stacks)))
		w.daemons = append(w.daemons, d)
		st.eng = program.NewSystem(driven, w.tr.wrapDaemon(d))
	}
	return st, nil
}

// warm runs one untimed random start to legitimacy on every stack, so
// that the engines' lazy initialisation is done and their buffers have
// grown before the first timed operation. The random starts and the
// daemons draw from setupSeed; the daemons then restart on the
// workload seed.
func (w *randomStart) warm() error {
	rng := rand.New(rand.NewSource(setupSeed))
	for _, st := range w.stacks {
		st.proto.(program.Randomizer).Randomize(rng)
		st.eng.Invalidate()
		res, err := st.eng.RunUntilLegitimate(st.budget)
		if err != nil {
			return fmt.Errorf("%s: %w", st.kind, err)
		}
		if !res.Converged {
			return fmt.Errorf("%s: warm-up did not converge", st.kind)
		}
	}
	for i, d := range w.daemons {
		d.reseed(w.seed + int64(i))
	}
	return nil
}

func (w *randomStart) layers(m metrics, t *traceRun) error {
	if w.workers == 0 {
		m.set("program.step_ns", t.stepNs(), "ns")
		return w.parallelLayers(m, t)
	}
	run, _ := t.tr.spanTotal("program", "run_until_legitimate")
	m.set("program.parallel.step_ms", float64(run)/float64(t.steps)/1e6, "ms")
	m.set("program.parallel.legit_check_share", 100*float64(t.tr.proto.legitNs.Load())/float64(run), "%")
	m.set("program.parallel.work_units", float64(t.first["work_units"]), "count")
	m.set("program.parallel.span_units", float64(t.first["span_units"]), "count")
	m.set("program.parallel.boundary_span_units", float64(t.first["boundary_span_units"]), "count")
	m.set("program.parallel.reshards", float64(t.first["reshards"]), "count")
	var frontier, waves int
	imbalance := 0.0
	for _, st := range w.stacks {
		ps := st.eng.(*program.ParallelSystem)
		frontier += ps.FrontierSize()
		waves += ps.WaveCount()
		work := ps.ShardWork(nil)
		hi, total := int64(0), int64(0)
		for _, x := range work {
			hi = max(hi, x)
			total += x
		}
		if total > 0 {
			imbalance = max(imbalance, float64(hi)*float64(len(work))/float64(total))
		}
	}
	m.set("program.parallel.frontier", float64(frontier), "count")
	m.set("program.parallel.wave_sets", float64(waves), "count")
	m.set("program.parallel.shard_imbalance", imbalance, "x")

	// The untraced first batch once more, on one worker: the same
	// random starts, so the wall and counted speedups compare like
	// with like.
	cfg := t.cfg
	cfg.workers = 1
	one, err := setupParallel(cfg)
	if err != nil {
		return err
	}
	defer one.close()
	rec := newRecorder()
	if _, err := countingBatch(one, rec); err != nil {
		return err
	}
	c1 := one.counts()
	m.set("program.parallel.wall_speedup", sum(rec.ops)/sum(t.plainOps), "x")
	if c1["span_units"] > 0 && t.first["span_units"] > 0 {
		perSpan := float64(t.first["moves"]) / float64(t.first["span_units"])
		perSpan1 := float64(c1["moves"]) / float64(c1["span_units"])
		m.set("program.parallel.counted_speedup", perSpan/perSpan1, "x")
	}
	return nil
}

// parallelLayers reports the parallel engine's layer on the stabilize
// workload's traced run, by tracing the first batch of the parallel
// workload. That workload shares the protocol code and has no
// end-to-end run of its own in BENCHMARK.json: on a shared two-CPU
// machine its times, which wait at every step for both CPUs, moved
// between sets of runs by more than any bound the benchmark may set.
func (w *randomStart) parallelLayers(m metrics, t *traceRun) error {
	pw, err := findWorkload("parallel")
	if err != nil {
		return err
	}
	pr, err := traced(pw, t.cfg.seed, 0, t.cfg.toy, "")
	if err != nil {
		return err
	}
	for _, wrong := range pr.rec.wrong {
		t.rec.check(false, "parallel: %s", wrong)
	}
	t.rec.attempted += pr.res.Attempted
	t.rec.failed += pr.res.Failed
	for name, v := range pr.res.Metrics {
		if strings.HasPrefix(name, "program.parallel.") {
			m[name] = v
		}
	}
	return nil
}
