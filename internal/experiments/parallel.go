package experiments

import (
	"fmt"
	"math/rand"

	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
	"netorient/internal/trace"
)

// T17FrontierWaves measures the sharded parallel stepper's counted
// distributed-daemon throughput against its own single-shard run, and
// what the batched wave execution of phase B buys over the serialized
// boundary pass, on the two topology regimes that matter: a 1024×1024
// grid (n = 2²⁰; thin frontier — the seam is small but strictly
// serial) and a Barabási–Albert graph at n = 2¹⁸ (expander-like, fat
// frontier — the serialized seam dominates the span and the speedup
// curve collapses without waves). Both graphs are relabeled by BFS
// discovery order (graph.BFSOrder + ReorderNodes) so each
// contiguous-id shard is a geometrically compact region.
//
// The machine running the table may have any number of cores — CI
// boxes often pin GOMAXPROCS — so the table reports *counted*
// throughput, not wall-clock: work is the total number of guard
// evaluations plus executed moves, span is the critical path under the
// engine's barrier structure (per step: the largest single shard's
// phase-A work plus the boundary pass). Per graph, the sweep crosses
// waves ∈ {off, on} × workers ∈ {1,2,4,8}. Two gated ratios come out:
// "counted speedup" is moves per span unit normalised by the
// (workers=1, waves=off) row of the same graph — a same-process ratio
// the regression gate can hold across hardware; the one-worker run has
// an empty frontier, so its span equals its work and its ratio is 1 by
// construction — and "seam speedup" is the phase-B span of the
// waves-off run divided by the phase-B span of the waves-on run at
// equal worker count (1.0 on waves-off rows by definition, and
// whenever the frontier is empty).
//
// Quick mode keeps both graph sizes and the full worker sweep
// (shrinking either would change or drop the row keys the committed
// baseline is diffed against) and only lowers the grid's step count.
func T17FrontierWaves(cfg Config) (*trace.Table, error) {
	return t17(cfg, 1024, 1<<18)
}

// t17 is T17's body over a side×side grid and a barabási graph of baN
// nodes. The committed table uses 1024 and 2¹⁸; the package's -short
// tests run it on small graphs.
func t17(cfg Config, side, baN int) (*trace.Table, error) {
	steps := 10
	if cfg.Quick {
		steps = 3
	}
	workerSet := []int{1, 2, 4, 8}
	if cfg.Workers > 0 {
		found := false
		for _, w := range workerSet {
			if w == cfg.Workers {
				found = true
			}
		}
		if !found {
			workerSet = append(workerSet, cfg.Workers)
		}
	}

	type topo struct {
		name  string
		base  *graph.Graph
		steps int
	}
	ba, err := graph.Barabasi(baN, 3, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	topos := []topo{
		{fmt.Sprintf("grid:%dx%d", side, side), graph.Grid(side, side), steps},
		// The BFS tree stabilizes within a handful of steps on the
		// low-diameter barabási graph, so its step count is pinned
		// below the convergence horizon in quick and full mode alike.
		{fmt.Sprintf("barabasi:%d:3", baN), ba, 3},
	}

	tb := trace.NewTable(
		"T17 — frontier waves: batched concurrent boundary execution vs the serialized phase-B pass (BFS tree on BFS-relabeled grid and barabási, counted work/span accounting)",
		"graph", "n", "workers", "waves", "steps", "moves", "frontier", "wave sets",
		"work units", "span units", "boundary span", "counted speedup", "seam speedup")
	for _, tp := range topos {
		order, err := graph.BFSOrder(tp.base, 0)
		if err != nil {
			return nil, err
		}
		g, inv, err := tp.base.ReorderNodes(order)
		if err != nil {
			return nil, err
		}
		root := inv[0]
		baseline := 0.0
		offSeam := make(map[int]int64, len(workerSet))
		for _, waves := range []bool{false, true} {
			for _, w := range workerSet {
				p, err := spantree.NewBFSTree(g, root)
				if err != nil {
					return nil, err
				}
				p.Randomize(rand.New(rand.NewSource(cfg.Seed)))
				ps := program.NewParallelSystem(p, program.ParallelConfig{
					Workers: w, Seed: cfg.Seed,
					FrontierWaves: waves, Reshard: cfg.reshardPolicy(),
				})
				for i := 0; i < tp.steps; i++ {
					n, err := ps.Step()
					if err != nil {
						return nil, err
					}
					if n == 0 {
						return nil, fmt.Errorf("T17: terminal after %d steps at %s w=%d", i, tp.name, w)
					}
				}
				if ps.SpanUnits() == 0 {
					return nil, fmt.Errorf("T17: zero span at %s w=%d", tp.name, w)
				}
				thr := float64(ps.Moves()) / float64(ps.SpanUnits())
				if baseline == 0 {
					baseline = thr
				}
				seam := 1.0
				if !waves {
					offSeam[w] = ps.BoundarySpanUnits()
				} else if on := ps.BoundarySpanUnits(); on > 0 && offSeam[w] > 0 {
					seam = float64(offSeam[w]) / float64(on)
				}
				mode := "off"
				if waves {
					mode = "on"
				}
				tb.AddRow(tp.name, g.N(), w, mode, tp.steps,
					ps.Moves(), ps.FrontierSize(), ps.WaveCount(),
					ps.WorkUnits(), ps.SpanUnits(), ps.BoundarySpanUnits(),
					thr/baseline, seam)
			}
		}
	}
	return tb, nil
}
