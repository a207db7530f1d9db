package core

import (
	"errors"
	"math/rand"
	"testing"

	"netorient/internal/check"
	"netorient/internal/graph"
	"netorient/internal/token"
)

// TestDFTNOEdgeLabelNeedsStrongFairness pins down a reproduction
// finding the model checker surfaced: DFTNO's edge-labeling rule is
// guarded by ¬Forward ∧ ¬Backtrack, so a node can only fix its
// labels while it does NOT hold the token — yet the node moves every
// round anyway (its token actions), satisfying processor-level *weak*
// fairness.
// An adversarial weakly-fair daemon can therefore select the node
// only at token-holding moments and starve the edge-label move
// forever. Under *strong* fairness (a move enabled infinitely often
// eventually executes) — or any randomized daemon, with probability
// one — the starvation is impossible and DFTNO converges, which the
// exhaustive check confirms.
func TestDFTNOEdgeLabelNeedsStrongFairness(t *testing.T) {
	t.Parallel()
	g := graph.Path(3)
	sub, err := token.NewCirculator(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDFTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	seeds, err := check.RandomSeeds(d, 25, rng)
	if err != nil {
		t.Fatal(err)
	}

	// Under weak fairness the starvation schedule is admissible: the
	// checker must find the illegitimate fair cycle.
	_, err = check.Verify(d, check.Options{Seeds: seeds, MaxStates: 3_000_000, Fairness: check.WeakFair})
	var ce *check.ConvergenceError
	if !errors.As(err, &ce) || ce.Kind != "cycle" {
		t.Fatalf("weak fairness: got %v, want an illegitimate-cycle ConvergenceError", err)
	}

	// Under strong fairness DFTNO is self-stabilizing.
	if _, err := check.Verify(d, check.Options{Seeds: seeds, MaxStates: 3_000_000, Fairness: check.StrongFair}); err != nil {
		t.Fatalf("strong fairness: %v", err)
	}
}
