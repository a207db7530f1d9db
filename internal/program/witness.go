package program

import (
	"fmt"
	"math/rand"

	"netorient/internal/graph"
)

// Witness is the incremental legitimacy contract: a protocol that can
// decide its legitimacy predicate L_P in O(1) from violation counters
// maintained per node, instead of the O(n) scan Legitimacy costs.
//
// The model: each node contributes a handful of booleans ("this node
// locally violates L_P in way X") that are functions of the node's
// closed neighbourhood — more precisely, of a ball no wider than the
// protocol's declared Influence sets. The protocol aggregates the
// contributions into counters; WitnessLegitimate decides L_P from the
// counters alone. Because a move can only change the contributions of
// nodes inside its influence set, the runner keeps the counters exact
// by calling WitnessRefresh on exactly the dirty set it already
// computes for guard re-evaluation.
//
// Contract, in force whenever the runner has armed the witness (see
// System.RunUntilLegitimate):
//
//   - WitnessReset fully recomputes the witness state from the current
//     configuration in O(n·Δ); afterwards WitnessLegitimate() must
//     equal Legitimate().
//   - WitnessRefresh(v) re-derives node v's contribution. After a move
//     whose influence set has been entirely refreshed, the equality
//     must hold again. Refreshing a node whose neighbourhood did not
//     change must be a no-op (idempotence).
//   - WitnessLegitimate decides L_P in O(1) from the counters. Calling
//     it before any WitnessReset, or after mutating the configuration
//     through any channel other than Protocol.Execute + refreshes,
//     yields garbage — the same staleness contract as the scheduler's
//     guard cache (System.Invalidate disarms the witness; the next
//     RunUntilLegitimate re-arms it with a fresh reset).
//
// Layered protocols compose witnesses through Layer: a layer
// refreshes the inner stack's witness and then its own counter, and
// conjoins the inner O(1) verdict with its own.
//
// CheckWitness audits the equality empirically; the differential and
// model-checking suites pin Legitimate() itself.
type Witness interface {
	WitnessReset()
	WitnessRefresh(v graph.NodeID)
	WitnessLegitimate() bool
}

// ViolationCounter is the Witness building block for protocols whose
// legitimacy predicate is a per-node conjunction: it counts the nodes
// whose clause currently fails, caching each node's flag so a refresh
// is an O(1) delta. Protocols embed one per layer, derive the clause
// in a closure, and decide legitimacy by Zero() (conjoined with a
// substrate verdict where applicable).
type ViolationCounter struct {
	valid bool
	viol  int
	node  []bool
}

// Valid reports whether the counter has been Reset since construction
// or invalidation and is being maintained.
func (w *ViolationCounter) Valid() bool { return w.valid }

// Zero reports whether no node currently violates its clause. Only
// meaningful while Valid.
func (w *ViolationCounter) Zero() bool { return w.viol == 0 }

// Invalidate marks the counter stale. The next Reset rebuilds it;
// witnesses whose WitnessLegitimate lazily Resets when not Valid use
// this to re-arm after a topology delta rewrote a derived fact their
// clauses read (a reference naming, a target distance vector).
func (w *ViolationCounter) Invalidate() { w.valid = false }

// Reset rebuilds the counter from the per-node evaluator, O(n) calls.
func (w *ViolationCounter) Reset(n int, bad func(graph.NodeID) bool) {
	if len(w.node) < n {
		w.node = make([]bool, n)
	}
	w.viol = 0
	for v := 0; v < n; v++ {
		b := bad(graph.NodeID(v))
		w.node[v] = b
		if b {
			w.viol++
		}
	}
	w.valid = true
}

// Refresh updates node v's cached flag from the fresh evaluation bad.
// A no-op while the counter is not Valid.
func (w *ViolationCounter) Refresh(v graph.NodeID, bad bool) {
	if !w.valid || w.node[v] == bad {
		return
	}
	w.node[v] = bad
	if bad {
		w.viol++
	} else {
		w.viol--
	}
}

// CheckWitness audits a protocol's Witness implementation against its
// O(n) Legitimate() predicate: from `configs` random configurations it
// arms the witness on a fresh incremental System and locksteps up to
// `steps` daemon steps, asserting WitnessLegitimate() == Legitimate()
// after the reset and after every step (including past the point of
// convergence, which exercises closure of the counters). The protocol
// must implement Legitimacy, Witness and Randomizer.
func CheckWitness(p Protocol, configs, steps int, mkDaemon func() Daemon, rng *rand.Rand) error {
	leg, ok := p.(Legitimacy)
	if !ok {
		return fmt.Errorf("program: %s has no legitimacy predicate; cannot check witness", p.Name())
	}
	w, ok := p.(Witness)
	if !ok {
		return fmt.Errorf("program: %s has no legitimacy witness; cannot check witness", p.Name())
	}
	rnd, ok := p.(Randomizer)
	if !ok {
		return fmt.Errorf("program: %s has no randomizer; cannot check witness", p.Name())
	}
	for c := 0; c < configs; c++ {
		rnd.Randomize(rng)
		sys := NewSystem(p, mkDaemon())
		sys.armWitness(w)
		for i := 0; ; i++ {
			if got, want := w.WitnessLegitimate(), leg.Legitimate(); got != want {
				return fmt.Errorf("program: %s witness says legitimate=%v but Legitimate() says %v (config %d, step %d)",
					p.Name(), got, want, c, i)
			}
			if i >= steps {
				break
			}
			n, err := sys.Step()
			if err != nil {
				return fmt.Errorf("program: %s witness check: %w", p.Name(), err)
			}
			if n == 0 {
				break // terminal; agreement was just checked
			}
		}
	}
	return nil
}
