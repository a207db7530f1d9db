// Package experiments implements the paper-reproduction harness: one
// runner per figure and complexity claim of the evaluation (the
// experiment index is All). Each runner returns a plain-text
// table with the rows the paper's artefact corresponds to; cmd/benchtab
// regenerates all of them and bench_test.go wraps each in a
// testing.B benchmark.
package experiments

import (
	"fmt"
	"math/rand"

	"netorient/internal/core"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
	"netorient/internal/token"
	"netorient/internal/trace"
)

// Config parameterises a run.
type Config struct {
	// Seed drives every random choice; equal seeds give equal tables.
	Seed int64
	// Quick shrinks sweeps for use inside tests and benchmarks.
	Quick bool
	// Trials overrides the per-point repetition count (0 = default).
	Trials int
	// Workers adds a worker count to experiments that sweep the
	// sharded parallel stepper (T17); 0 keeps the default sweep.
	Workers int
	// ReshardImbalance and ReshardMinInterval arm the work-driven
	// resharding policy on the parallel-stepper experiments
	// (program.ReshardPolicy); an imbalance ≤ 1 leaves it off.
	ReshardImbalance   float64
	ReshardMinInterval int64
}

// reshardPolicy assembles the ReshardPolicy the CLI flags describe.
func (c Config) reshardPolicy() program.ReshardPolicy {
	return program.ReshardPolicy{Imbalance: c.ReshardImbalance, MinInterval: c.ReshardMinInterval}
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick && def > 3 {
		return 3
	}
	return def
}

// Runner produces one experiment table.
type Runner func(cfg Config) (*trace.Table, error)

// Experiment pairs an id with its runner and the paper artefact it
// reproduces.
type Experiment struct {
	ID       string
	Artefact string
	Run      Runner
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"F1", "Figure 2.2.1 — chordal sense of direction", F1Chordal},
		{"F2", "Figure 3.1.1 — DFTNO node labeling trace", F2DFTNOTrace},
		{"F3", "Figure 4.1.1 — STNO weights and naming", F3STNOTrace},
		{"T1", "§3.2.3 — DFTNO stabilizes in O(n) after the token layer", T1DFTNOScaling},
		{"T2", "§4.2.3 — STNO stabilizes in O(h) after the tree layer", T2STNOHeight},
		{"T3", "§3.2.3/§4.2.3/Ch.5 — space O(Δ·log N) and substrate overheads", T3Space},
		{"T4", "Thms 3.2.3/4.2.3 — recovery from k-node transient faults", T4Recovery},
		{"T5", "§1.3/§1.4/Ch.5 — orientation cuts message complexity (Santoro)", T5SoDBenefit},
		{"T6", "Ch.5 — STNO on a DFS tree names exactly like DFTNO", T6Equivalence},
		{"T7", "ablation — daemon models vs stabilization cost", T7Daemons},
		{"T8", "ablation — ψ port orders yield different valid orientations", T8Orderings},
		{"T9", "Ch.5/[25] — the sense of direction makes leader election cheaper", T9Election},
		{"T10", "§1.3 — greedy routing over the chordal labels: reach and stretch", T10Routing},
		{"T11", "scheduler — O(Δ) incremental guard re-evaluation vs Θ(n) full scan", T11SchedulerScaling},
		{"T12", "scheduler — incremental legitimacy witness vs O(n) Legitimate() scan", T12WitnessLegitimacy},
		{"T13", "dynamic topology — localized ApplyDelta invalidation and churn recovery", T13Churn},
		{"T14", "partition tolerance — per-component convergence while split, heal-time merge vs partition count", T14PartitionHeal},
		{"T15", "root failover — disconnection detection latency and acting-root re-anchoring vs orphan size", T15Failover},
		{"T17", "scheduler — batched frontier waves + work-driven resharding: counted speedup and phase-B span vs the serialized boundary pass", T17FrontierWaves},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// newDFTNO builds a DFTNO stack over the self-stabilizing circulator.
func newDFTNO(g *graph.Graph, root graph.NodeID) (*core.DFTNO, error) {
	sub, err := token.NewCirculator(g, root)
	if err != nil {
		return nil, err
	}
	return core.NewDFTNO(g, sub, 0)
}

// newSTNO builds an STNO stack over the self-stabilizing BFS tree.
func newSTNO(g *graph.Graph, root graph.NodeID) (*core.STNO, error) {
	sub, err := spantree.NewBFSTree(g, root)
	if err != nil {
		return nil, err
	}
	return core.NewSTNO(g, sub, 0)
}

// stabilizeFrom randomizes p and runs it to legitimacy, returning the
// run result.
func stabilizeFrom(p program.Protocol, rng *rand.Rand, d program.Daemon, maxSteps int64) (program.RunResult, error) {
	if r, ok := p.(program.Randomizer); ok {
		r.Randomize(rng)
	}
	sys := program.NewSystem(p, d)
	res, err := sys.RunUntilLegitimate(maxSteps)
	if err != nil {
		return res, err
	}
	if !res.Converged {
		return res, fmt.Errorf("experiments: %s did not converge within %d steps", p.Name(), maxSteps)
	}
	return res, nil
}

// stepBudget is a generous per-experiment step bound.
func stepBudget(g *graph.Graph) int64 {
	return int64(20000 * (g.N() + g.M()))
}

// medianInt64 summarises samples for table rows.
func medianInt64(xs []int64) float64 {
	return trace.SummarizeInts(xs).Median
}
