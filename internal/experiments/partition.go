package experiments

import (
	"fmt"

	"netorient/internal/core"
	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/token"
	"netorient/internal/trace"
)

// T14PartitionHeal measures partition tolerance end to end on the
// DFTNO stack: bridge cuts split the network into parts, the split
// system must reach per-component legitimacy (the root's component by
// the classic predicate restricted to it, orphan components by
// quiescence in their detected-orphan fixpoints), and the heals merge
// the components back.
//
// "split steps" is the per-component convergence cost while
// disconnected. "heal delta evals" counts the guard re-evaluations the
// localized ApplyDelta path pays for all heals — the boundary ball
// plus the renamed orphan region — versus "heal invalidate evals", the
// Θ(n)-per-heal rescans a whole-system Invalidate pays for the same
// merges; "heal speedup" is their ratio and the regression gate guards
// it. Sweeping the number of cuts shows how heal-time cost scales with
// partition count.
func T14PartitionHeal(cfg Config) (*trace.Table, error) {
	tb := trace.NewTable(
		"T14 — partition tolerance: per-component convergence while split and heal-time merge vs partition count (DFTNO over the circulator, central daemon)",
		"graph", "n", "parts", "orphans",
		"heal delta evals", "heal invalidate evals",
		"split steps", "recovery moves", "recovery rounds", "heal speedup")

	type point struct {
		name string
		mk   func() *graph.Graph
		cuts [][2]graph.NodeID
	}
	// Lollipop(40,16): clique 0..39, tail 40..55 hanging off node 0.
	// Every tail edge is a bridge; cutting k of them splits the tail
	// into k orphan segments while the clique side keeps the root.
	lolli := func() *graph.Graph { return graph.Lollipop(40, 16) }
	points := []point{
		{"lollipop:40:16", lolli, [][2]graph.NodeID{{47, 48}}},
		{"lollipop:40:16", lolli, [][2]graph.NodeID{{44, 45}, {49, 50}}},
		{"lollipop:40:16", lolli, [][2]graph.NodeID{{42, 43}, {45, 46}, {48, 49}, {51, 52}}},
		// Caterpillar(16,2): spine path 0..15, two leaves per spine
		// node; spine cuts orphan whole sub-caterpillars.
		{"caterpillar:16:2", func() *graph.Graph { return graph.Caterpillar(16, 2) },
			[][2]graph.NodeID{{5, 6}, {10, 11}}},
	}
	if cfg.Quick {
		points = points[:1]
	}
	for _, pt := range points {
		if err := t14Row(cfg, tb, pt.name, pt.mk, pt.cuts); err != nil {
			return nil, fmt.Errorf("T14 %s: %w", pt.name, err)
		}
	}
	return tb, nil
}

// t14Row runs one cut-set scenario: localized path (cuts and heals
// through ApplyDelta) for the committed measurements, then a fresh
// blunt path (heals through whole-system Invalidate) for the
// comparison column.
func t14Row(cfg Config, tb *trace.Table, name string, mk func() *graph.Graph, cuts [][2]graph.NodeID) error {
	build := func(g *graph.Graph) (*guardScanCountingDFTNO, *program.System, error) {
		sub, err := token.NewCirculator(g, 0)
		if err != nil {
			return nil, nil, err
		}
		d, err := core.NewDFTNO(g, sub, 0)
		if err != nil {
			return nil, nil, err
		}
		w := &guardScanCountingDFTNO{DFTNO: d}
		sys := program.NewSystem(w, daemon.NewCentral(cfg.Seed))
		// Constructed legitimate; arm the witness, then circulate a
		// while so the guard cache is live and the token mid-round.
		if _, err := sys.RunUntilLegitimate(10); err != nil {
			return nil, nil, err
		}
		if _, err := sys.RunUntil(func() bool { return false }, 200); err != nil {
			return nil, nil, err
		}
		return w, sys, nil
	}

	// Localized path.
	g := mk()
	w, sys, err := build(g)
	if err != nil {
		return err
	}
	for _, c := range cuts {
		d, err := g.RemoveEdge(c[0], c[1])
		if err != nil {
			return err
		}
		sys.ApplyDelta(d)
	}
	parts := g.Components()
	orphans := g.NAlive() - g.ComponentSize(g.ComponentOf(0))
	resSplit, err := sys.RunUntilLegitimate(stepBudget(g))
	if err != nil || !resSplit.Converged {
		return fmt.Errorf("no per-component convergence while split: %v", err)
	}
	w.evals = 0
	for _, c := range cuts {
		d, err := g.AddEdge(c[0], c[1])
		if err != nil {
			return err
		}
		sys.ApplyDelta(d)
	}
	healDelta := w.evals
	res, err := sys.RunUntilLegitimate(stepBudget(g))
	if err != nil || !res.Converged {
		return fmt.Errorf("no recovery after heal: %v", err)
	}

	// Blunt path: identical cut schedule and split convergence, heals
	// through Invalidate (the protocol hook still runs — Invalidate
	// repairs caches, not bindings).
	g2 := mk()
	w2, sys2, err := build(g2)
	if err != nil {
		return err
	}
	for _, c := range cuts {
		d, err := g2.RemoveEdge(c[0], c[1])
		if err != nil {
			return err
		}
		sys2.ApplyDelta(d)
	}
	if resSplit2, err := sys2.RunUntilLegitimate(stepBudget(g2)); err != nil || !resSplit2.Converged {
		return fmt.Errorf("blunt path: no convergence while split: %v", err)
	}
	w2.evals = 0
	for _, c := range cuts {
		d, err := g2.AddEdge(c[0], c[1])
		if err != nil {
			return err
		}
		w2.TopologyChanged(d, nil)
		sys2.Invalidate()
		sys2.EnabledCount() // forces the Θ(n) rescan the invalidation deferred
	}
	healInv := w2.evals

	tb.AddRow(name, g.N(), parts, orphans,
		healDelta, healInv,
		resSplit.Steps, res.Moves, res.Rounds,
		float64(healInv)/float64(healDelta))
	return nil
}
