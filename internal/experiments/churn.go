package experiments

import (
	"fmt"
	"math/rand"

	"netorient/internal/churn"
	"netorient/internal/core"
	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/token"
	"netorient/internal/trace"
)

// T13Churn measures the dynamic-topology substrate end to end.
//
// Flap rows — the localized-invalidation claim: on an already
// stabilized DFTNO stack mid-circulation, one edge flap (remove + of
// the same non-tree edge, re-add) processed through System.ApplyDelta
// re-evaluates O(deg·Δ) guards ("delta evals", counted not timed),
// versus the Θ(n) rescans a whole-system Invalidate pays for the same
// event ("invalidate evals"); the speedup column is their ratio, and
// the regression gate guards it. Re-stabilization after the flap runs
// on the armed witness: "wit scans" counts O(n) Legitimate() calls and
// its committed value is 0. "ref rebuilds" counts O(n+m) reference-
// naming rebuilds — the removal half of a non-tree flap provably
// cannot change the port-order DFS and takes the incremental skip, so
// the committed value is 1 (the re-add), not 2.
//
// Churn-rate rows — re-stabilization under sustained churn: the churn
// engine drives seeded edge-flap events over gnp and grid networks at
// varying periods (the inverse churn rate), reporting how many events
// the system fully absorbed inside the recovery window and the median
// re-stabilization cost per absorbed event.
func T13Churn(cfg Config) (*trace.Table, error) {
	tb := trace.NewTable(
		"T13 — dynamic topology: localized ApplyDelta invalidation vs whole-system Invalidate (single edge flap, counted guard re-evaluations) and re-stabilization vs churn rate (DFTNO over the circulator, central daemon)",
		"scenario", "graph", "n", "period", "events",
		"delta evals", "invalidate evals", "wit scans", "ref rebuilds",
		"recovered", "median moves", "median rounds", "speedup")

	type point struct {
		name string
		mk   func() *graph.Graph
	}
	flapPoints := []point{
		{"grid:64x64", func() *graph.Graph { return graph.Grid(64, 64) }},
		{"grid:128x128", func() *graph.Graph { return graph.Grid(128, 128) }},
		{"grid:256x256", func() *graph.Graph { return graph.Grid(256, 256) }},
	}
	if cfg.Quick {
		flapPoints = flapPoints[:1]
	}
	for _, pt := range flapPoints {
		if err := t13Flap(cfg, tb, pt.name, pt.mk()); err != nil {
			return nil, fmt.Errorf("T13 flap %s: %w", pt.name, err)
		}
	}

	churnPoints := []struct {
		name   string
		mk     func() (*graph.Graph, error)
		period int64
	}{
		{"grid:32x32", func() (*graph.Graph, error) { return graph.Grid(32, 32), nil }, 500},
		{"grid:32x32", func() (*graph.Graph, error) { return graph.Grid(32, 32), nil }, 5000},
		{"gnp:256:0.03", func() (*graph.Graph, error) {
			return graph.Gnp(256, 0.03, rand.New(rand.NewSource(cfg.Seed)))
		}, 500},
		{"gnp:256:0.03", func() (*graph.Graph, error) {
			return graph.Gnp(256, 0.03, rand.New(rand.NewSource(cfg.Seed)))
		}, 5000},
	}
	if cfg.Quick {
		churnPoints = churnPoints[:2]
	}
	for _, pt := range churnPoints {
		g, err := pt.mk()
		if err != nil {
			return nil, fmt.Errorf("T13 churn %s: %w", pt.name, err)
		}
		if err := t13Rate(cfg, tb, pt.name, g, pt.period); err != nil {
			return nil, fmt.Errorf("T13 churn %s: %w", pt.name, err)
		}
	}
	return tb, nil
}

// t13Flap runs the single-edge-flap comparison on g.
func t13Flap(cfg Config, tb *trace.Table, name string, g *graph.Graph) error {
	build := func() (*guardScanCountingDFTNO, *program.System, error) {
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
		// Constructed legitimate; this arms the witness, then a few
		// hundred steps put the circulation mid-round.
		if _, err := sys.RunUntilLegitimate(10); err != nil {
			return nil, nil, err
		}
		if _, err := sys.RunUntil(func() bool { return false }, 200); err != nil {
			return nil, nil, err
		}
		return w, sys, nil
	}

	// A non-tree edge of the reference DFS: the removal half of the
	// flap takes the incremental skip and the naming provably returns
	// to itself on re-add.
	_, par := graph.DFSPreorder(g, 0)
	var eu, ev graph.NodeID = graph.None, graph.None
	for _, e := range g.Edges() {
		if par[e.U] != e.V && par[e.V] != e.U {
			eu, ev = e.U, e.V
			break
		}
	}
	if eu == graph.None {
		return fmt.Errorf("no non-tree edge on %s", g)
	}

	// Localized path: flap through ApplyDelta.
	w, sys, err := build()
	if err != nil {
		return err
	}
	rebuilds0 := w.RefRebuilds
	w.evals, w.scans = 0, 0
	d1, err := g.RemoveEdge(eu, ev)
	if err != nil {
		return err
	}
	sys.ApplyDelta(d1)
	deltaEvals := w.evals
	// Let the system adapt to the down topology before the restore, so
	// the re-add is a real perturbation, not an immediate undo.
	if _, err := sys.RunUntil(func() bool { return false }, 200); err != nil {
		return err
	}
	w.evals = 0
	d2, err := g.AddEdge(eu, ev)
	if err != nil {
		return err
	}
	sys.ApplyDelta(d2)
	deltaEvals += w.evals
	w.evals, w.scans = 0, 0
	res, err := sys.RunUntilLegitimate(stepBudget(g))
	if err != nil || !res.Converged {
		return fmt.Errorf("no re-stabilization after flap: %v", err)
	}
	witScans := w.scans
	rebuilds := w.RefRebuilds - rebuilds0

	// Blunt path: same flap, whole-system Invalidate (the protocol
	// hook still runs — Invalidate repairs caches, not bindings).
	w2, sys2, err := build()
	if err != nil {
		return err
	}
	w2.evals = 0
	d1, err = g.RemoveEdge(eu, ev)
	if err != nil {
		return err
	}
	w2.TopologyChanged(d1, nil)
	sys2.Invalidate()
	sys2.EnabledCount() // forces the Θ(n) rescan the invalidation deferred
	d2, err = g.AddEdge(eu, ev)
	if err != nil {
		return err
	}
	w2.TopologyChanged(d2, nil)
	sys2.Invalidate()
	sys2.EnabledCount()
	invEvals := w2.evals

	tb.AddRow("flap", name, g.N(), "-", 1,
		deltaEvals, invEvals, witScans, rebuilds,
		"1/1", float64(res.Moves), float64(res.Rounds),
		float64(invEvals)/float64(deltaEvals))
	return nil
}

// t13Rate runs the churn-rate sweep row on g.
func t13Rate(cfg Config, tb *trace.Table, name string, g *graph.Graph, period int64) error {
	sub, err := token.NewCirculator(g, 0)
	if err != nil {
		return err
	}
	d, err := core.NewDFTNO(g, sub, 0)
	if err != nil {
		return err
	}
	// The churn-rate sweep measures recovery inside the period, which
	// is engine-independent — so it honors Config.Workers: >0 runs the
	// schedule on the sharded parallel stepper (benchtab -workers),
	// default stays the serial scheduler the committed baselines used.
	var sys program.Stepper
	if cfg.Workers > 0 {
		sys = program.NewParallelSystem(d, program.ParallelConfig{Workers: cfg.Workers, Seed: cfg.Seed})
	} else {
		sys = program.NewSystem(d, daemon.NewCentral(cfg.Seed))
	}
	run := &churn.Runner{G: g, Sys: sys, Root: 0}
	events := cfg.trials(12)
	st, err := run.Run(churn.Config{
		Seed:    cfg.Seed,
		Events:  events,
		Period:  period,
		DownFor: period / 4,
		Mix:     []churn.Kind{churn.EdgeFlap, churn.NodeCrash, churn.Partition},
	})
	if err != nil {
		return err
	}
	if !st.Final.Converged {
		return fmt.Errorf("no final recovery at period %d", period)
	}
	tb.AddRow("churn-rate", name, g.N(), period, st.Events,
		"-", "-", "-", "-",
		fmt.Sprintf("%d/%d", st.RecoveredInPeriod, st.Events),
		medianInt64(st.RecoveryMoves), medianInt64(st.RecoveryRounds), "-")
	return nil
}
