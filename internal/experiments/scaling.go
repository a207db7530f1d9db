package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"netorient/internal/core"
	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
	"netorient/internal/token"
	"netorient/internal/trace"
)

// spantreeDFSOracle wraps the fixed port-ordered DFS tree of g as a
// tree substrate.
func spantreeDFSOracle(g *graph.Graph) (core.TreeSubstrate, error) {
	return spantree.NewDFSOracle(g, 0)
}

// T1DFTNOScaling measures §3.2.3: after the token circulation layer
// has stabilized, DFTNO stabilizes in O(n) moves. For each topology
// and size, the full stack starts from a random configuration, runs
// until the substrate alone is legitimate, then counts the extra
// moves/rounds to full orientation legitimacy. The moves/n column is
// the linearity witness: it stays bounded as n grows.
func T1DFTNOScaling(cfg Config) (*trace.Table, error) {
	sizes := []int{8, 16, 32, 64, 128}
	if cfg.Quick {
		sizes = []int{8, 16, 32}
	}
	topologies := []struct {
		name string
		mk   func(n int, rng *rand.Rand) *graph.Graph
	}{
		{"ring", func(n int, _ *rand.Rand) *graph.Graph { return graph.Ring(n) }},
		{"binary-tree", func(n int, _ *rand.Rand) *graph.Graph { return graph.KAryTree(n, 2) }},
		{"random(+n/2)", func(n int, rng *rand.Rand) *graph.Graph { return graph.RandomConnected(n, n/2, rng) }},
	}
	trials := cfg.trials(5)
	rng := rand.New(rand.NewSource(cfg.Seed))
	tb := trace.NewTable(
		"T1 (§3.2.3) — DFTNO stabilization after the token layer stabilizes: O(n) moves (median over trials)",
		"topology", "n", "m", "moves", "rounds", "moves/n")
	for _, topo := range topologies {
		for _, n := range sizes {
			g := topo.mk(n, rng)
			var moves, rounds []int64
			for trial := 0; trial < trials; trial++ {
				d, err := newDFTNO(g, 0)
				if err != nil {
					return nil, err
				}
				d.Randomize(rng)
				sys := program.NewSystem(d, daemon.NewCentral(cfg.Seed+int64(trial)))
				// Phase 1: substrate stabilization (not charged to DFTNO).
				sub := d.Substrate()
				res, err := sys.RunUntil(sub.Legitimate, stepBudget(g))
				if err != nil || !res.Converged {
					return nil, fmt.Errorf("T1: substrate did not stabilize on %s n=%d: %v", topo.name, n, err)
				}
				// Phase 2: orientation stabilization, counted.
				sys.ResetCounters()
				res, err = sys.RunUntilLegitimate(stepBudget(g))
				if err != nil || !res.Converged {
					return nil, fmt.Errorf("T1: orientation did not stabilize on %s n=%d: %v", topo.name, n, err)
				}
				moves = append(moves, res.Moves)
				rounds = append(rounds, res.Rounds)
			}
			medMoves := medianInt64(moves)
			tb.AddRow(topo.name, n, g.M(), medMoves, medianInt64(rounds), medMoves/float64(n))
		}
	}
	return tb, nil
}

// T2STNOHeight measures §4.2.3: after the spanning tree is stable,
// STNO stabilizes in O(h) rounds. Trees of (near-)fixed size but very
// different heights are compared under the synchronous daemon; the
// rounds/h column is the witness.
func T2STNOHeight(cfg Config) (*trace.Table, error) {
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"star (h=1)", graph.Star(64)},
		{"binary tree (h=5)", graph.KAryTree(63, 2)},
		{"caterpillar (h≈21)", graph.Caterpillar(21, 2)},
		{"path (h=63)", graph.Path(64)},
	}
	if cfg.Quick {
		shapes = shapes[:3]
	}
	trials := cfg.trials(5)
	rng := rand.New(rand.NewSource(cfg.Seed))
	tb := trace.NewTable(
		"T2 (§4.2.3) — STNO stabilization on a stable tree: O(h) rounds (median over trials, synchronous daemon)",
		"tree", "n", "height h", "rounds", "moves", "rounds/h")
	for _, sh := range shapes {
		g := sh.g
		_, parent := graph.BFSFrom(g, 0)
		h := graph.TreeHeight(parent, 0)
		var rounds, moves []int64
		for trial := 0; trial < trials; trial++ {
			sub, err := spantree.NewOracle(g, 0, parent)
			if err != nil {
				return nil, err
			}
			s, err := core.NewSTNO(g, sub, 0)
			if err != nil {
				return nil, err
			}
			s.Randomize(rng)
			sys := program.NewSystem(s, daemon.NewSynchronous(cfg.Seed+int64(trial)))
			res, err := sys.RunUntilLegitimate(stepBudget(g))
			if err != nil || !res.Converged {
				return nil, fmt.Errorf("T2: STNO did not stabilize on %s: %v", sh.name, err)
			}
			rounds = append(rounds, res.Rounds)
			moves = append(moves, res.Moves)
		}
		medRounds := medianInt64(rounds)
		tb.AddRow(sh.name, g.N(), h, medRounds, medianInt64(moves), medRounds/float64(h))
	}
	return tb, nil
}

// guardCountingProto wraps a protocol and counts Enabled calls — the
// machine-independent cost metric of the scheduler comparison: the
// incremental runner should evaluate O(Δ) guards per step, the
// full-scan oracle evaluates n (plus the pending rescan).
type guardCountingProto struct {
	program.Protocol
	inf   program.Influencer
	evals int64
}

func wrapCounting(p program.Protocol) *guardCountingProto {
	inf, _ := p.(program.Influencer)
	return &guardCountingProto{Protocol: p, inf: inf}
}

func (p *guardCountingProto) Enabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	p.evals++
	return p.Protocol.Enabled(v, buf)
}

// Influence forwards the wrapped protocol's locality declaration, so
// the incremental scheduler keeps its dirty sets tight.
func (p *guardCountingProto) Influence(v graph.NodeID, a program.ActionID, buf []graph.NodeID) []graph.NodeID {
	if p.inf != nil {
		return p.inf.Influence(v, a, buf)
	}
	return program.InfluenceClosedNeighborhood(p.Graph(), v, buf)
}

// T11SchedulerScaling measures the tentpole claim of the event-driven
// incremental scheduler: per-step cost is O(Δ) guard evaluations
// independent of n, against the full-scan oracle's Θ(n). The
// self-stabilizing token circulation runs from identical random
// configurations on rings and grids up to 16k nodes (the "≥10k nodes"
// regime where the asymptotic win shows) under same-seeded central
// daemons; both schedulers take the same fixed number of steps and the
// table reports guard evaluations per step and wall-clock per step for
// each, plus the speedup. Executions are bit-identical (the
// differential suite asserts this exhaustively), so the two columns
// measure the same computation scheduled two ways.
func T11SchedulerScaling(cfg Config) (*trace.Table, error) {
	type point struct {
		name string
		mk   func() *graph.Graph
	}
	points := []point{
		{"ring:1024", func() *graph.Graph { return graph.Ring(1024) }},
		{"grid:64x64", func() *graph.Graph { return graph.Grid(64, 64) }},
		{"grid:100x100", func() *graph.Graph { return graph.Grid(100, 100) }},
		{"grid:128x128", func() *graph.Graph { return graph.Grid(128, 128) }},
		{"grid:256x256", func() *graph.Graph { return graph.Grid(256, 256) }},
	}
	// Quick mode shrinks the point set but keeps the per-point step
	// count: the ns/step cells stay comparable with (and matchable
	// against) the committed full baseline, which is what the CI
	// regression gate diffs.
	steps := 2000
	if cfg.Quick {
		points = points[:2]
	}
	tb := trace.NewTable(
		"T11 — event-driven incremental scheduler vs full-scan oracle: guard evaluations and wall-clock per step (token circulation from a random configuration, central daemon)",
		"graph", "n", "m", "steps", "inc evals/step", "full evals/step", "inc ns/step", "full ns/step", "speedup")
	for _, pt := range points {
		g := pt.mk()
		run := func(full bool) (evalsPerStep float64, nsPerStep float64, err error) {
			c, err := token.NewCirculator(g, 0)
			if err != nil {
				return 0, 0, err
			}
			c.Randomize(rand.New(rand.NewSource(cfg.Seed)))
			w := wrapCounting(c)
			var sys *program.System
			if full {
				sys = program.NewSystemFullScan(w, daemon.NewCentral(cfg.Seed))
			} else {
				sys = program.NewSystem(w, daemon.NewCentral(cfg.Seed))
			}
			if _, err := sys.Step(); err != nil { // bootstrap scan outside the measurement
				return 0, 0, err
			}
			w.evals = 0
			startT := time.Now()
			for i := 0; i < steps; i++ {
				n, err := sys.Step()
				if err != nil {
					return 0, 0, err
				}
				if n == 0 {
					return 0, 0, fmt.Errorf("T11: %s went terminal after %d steps", pt.name, i)
				}
			}
			elapsed := time.Since(startT)
			return float64(w.evals) / float64(steps), float64(elapsed.Nanoseconds()) / float64(steps), nil
		}
		incEvals, incNs, err := run(false)
		if err != nil {
			return nil, err
		}
		fullEvals, fullNs, err := run(true)
		if err != nil {
			return nil, err
		}
		tb.AddRow(pt.name, g.N(), g.M(), steps, incEvals, fullEvals, incNs, fullNs, fullNs/incNs)
	}
	return tb, nil
}

// guardScanCountingDFTNO wraps a DFTNO stack counting guard
// evaluations (Enabled calls) and O(n) Legitimate() scans. Embedding
// keeps every optional contract the scheduler type-asserts
// (Influencer, Witness, TopologyAware), so the wrapped stack runs on
// either legitimacy path unchanged; the witness path must leave the
// scan counter at zero.
type guardScanCountingDFTNO struct {
	*core.DFTNO
	evals int64
	scans int64
}

func (d *guardScanCountingDFTNO) Enabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	d.evals++
	return d.DFTNO.Enabled(v, buf)
}

func (d *guardScanCountingDFTNO) Legitimate() bool {
	d.scans++
	return d.DFTNO.Legitimate()
}

// T12WitnessLegitimacy measures the incremental legitimacy witness
// against the O(n) Legitimate() scan in RunUntilLegitimate loops on
// the full DFTNO stack — the second half of the "O(Δ) steps end to
// end" claim (the EnabledSet daemon API being the first). Two phases
// per graph, same-seeded on both sides:
//
//   - stabilize: run from a random configuration to legitimacy. The
//     witness-backed run performs exactly one O(n) pass (the arming
//     reset); the scan-backed run evaluates Legitimate() after every
//     step.
//   - monitor: from the legitimate configuration, drive the circulation
//     for a fixed number of steps with a per-step legitimacy verdict —
//     the steady-state regime, where the scan pays the full chain walk
//     every step and the witness answers from counters in O(1).
//
// The "wit scans" column is the witness run's Legitimate() count: its
// being 0 is the "zero O(n) legitimacy scans in steady state" claim,
// measured rather than asserted.
func T12WitnessLegitimacy(cfg Config) (*trace.Table, error) {
	type point struct {
		name string
		mk   func() *graph.Graph
	}
	points := []point{
		{"grid:16x16", func() *graph.Graph { return graph.Grid(16, 16) }},
		{"grid:32x32", func() *graph.Graph { return graph.Grid(32, 32) }},
		{"grid:64x64", func() *graph.Graph { return graph.Grid(64, 64) }},
	}
	// As in T11, quick mode shrinks the point set only, so every
	// quick row matches a committed-baseline row for the CI gate.
	monitorSteps := 20000
	if cfg.Quick {
		points = points[:2]
	}
	tb := trace.NewTable(
		"T12 — incremental legitimacy witness vs O(n) Legitimate() scan (DFTNO over the circulator, central daemon): stabilization from a random configuration and steady-state monitoring",
		"phase", "graph", "n", "steps", "wit scans", "scan scans", "wit ns/step", "scan ns/step", "speedup")
	for _, pt := range points {
		g := pt.mk()
		build := func() (*guardScanCountingDFTNO, error) {
			d, err := newDFTNO(g, 0)
			if err != nil {
				return nil, err
			}
			return &guardScanCountingDFTNO{DFTNO: d}, nil
		}
		// Phase 1: stabilization. The witness side uses the runner's
		// witness path (RunUntilLegitimate arms it); the scan side
		// forces the predicate through the counting wrapper.
		stabilize := func(useWitness bool) (steps int64, scans int64, nsPerStep float64, err error) {
			d, err := build()
			if err != nil {
				return 0, 0, 0, err
			}
			d.Randomize(rand.New(rand.NewSource(cfg.Seed)))
			sys := program.NewSystem(d, daemon.NewCentral(cfg.Seed))
			startT := time.Now()
			var res program.RunResult
			if useWitness {
				res, err = sys.RunUntilLegitimate(stepBudget(g))
			} else {
				res, err = sys.RunUntil(d.Legitimate, stepBudget(g))
			}
			if err != nil || !res.Converged {
				return 0, 0, 0, fmt.Errorf("T12: %s did not stabilize: %v", pt.name, err)
			}
			elapsed := time.Since(startT)
			return res.Steps, d.scans, float64(elapsed.Nanoseconds()) / float64(res.Steps), nil
		}
		witSteps, witScans, witNs, err := stabilize(true)
		if err != nil {
			return nil, err
		}
		scanSteps, scanScans, scanNs, err := stabilize(false)
		if err != nil {
			return nil, err
		}
		if witSteps != scanSteps {
			return nil, fmt.Errorf("T12: witness and scan stabilizations diverged (%d vs %d steps) — predicates disagree", witSteps, scanSteps)
		}
		tb.AddRow("stabilize", pt.name, g.N(), witSteps, witScans, scanScans, witNs, scanNs, scanNs/witNs)

		// Phase 2: steady-state monitoring of the legitimate system.
		monitor := func(useWitness bool) (scans int64, nsPerStep float64, err error) {
			d, err := build()
			if err != nil {
				return 0, 0, err
			}
			sys := program.NewSystem(d, daemon.NewCentral(cfg.Seed))
			pred := d.Legitimate
			if useWitness {
				// Arm the witness through the runner, then keep the
				// verdict per step; the arming reset is the single
				// O(n) pass of this run.
				if _, err := sys.RunUntilLegitimate(1); err != nil {
					return 0, 0, err
				}
				pred = d.WitnessLegitimate
			}
			startT := time.Now()
			ok, err := sys.HoldsFor(pred, int64(monitorSteps))
			if err != nil || !ok {
				return 0, 0, fmt.Errorf("T12: %s left the legitimate set while monitored: %v", pt.name, err)
			}
			elapsed := time.Since(startT)
			return d.scans, float64(elapsed.Nanoseconds()) / float64(monitorSteps), nil
		}
		witScans, witNs, err = monitor(true)
		if err != nil {
			return nil, err
		}
		scanScans, scanNs, err = monitor(false)
		if err != nil {
			return nil, err
		}
		tb.AddRow("monitor", pt.name, g.N(), monitorSteps, witScans, scanScans, witNs, scanNs, scanNs/witNs)
	}
	return tb, nil
}
