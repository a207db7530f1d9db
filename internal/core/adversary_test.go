package core

import (
	"math/rand"
	"testing"

	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
)

// TestSTNOConvergesUnderAdversarialDaemons stresses STNO with
// deliberately hostile (but legal) schedulers — the paper only asks
// for an unfair daemon for STNO's substrate, so any scheduler that
// keeps selecting enabled processors must do.
func TestSTNOConvergesUnderAdversarialDaemons(t *testing.T) {
	t.Parallel()
	g := graph.Grid(3, 3)
	adversaries := map[string]program.Daemon{
		// Always pick the highest-id enabled processor (starves low
		// ids as long as legally possible), executing its first
		// enabled action — substrate before orientation, respecting
		// the fair composition of the layers.
		"highest-id": daemon.NewAdversarial("highest-id", func(set program.EnabledSet) []program.Move {
			i := set.Len() - 1 // ascending order: the last index is the highest id
			return []program.Move{{Node: set.At(i), Action: set.Actions(i, nil)[0]}}
		}),
		// Always pick the processor farthest from the root.
		"farthest": daemon.NewAdversarial("farthest", func(set program.EnabledSet) []program.Move {
			dist, _ := graph.BFSFrom(g, 0)
			best := 0
			for i := 1; i < set.Len(); i++ {
				if dist[set.At(i)] > dist[set.At(best)] {
					best = i
				}
			}
			return []program.Move{{Node: set.At(best), Action: set.Actions(best, nil)[0]}}
		}),
		// Activate everyone but execute in reverse id order.
		"reverse-sync": daemon.NewAdversarial("reverse-sync", func(set program.EnabledSet) []program.Move {
			moves := make([]program.Move, 0, set.Len())
			for i := set.Len() - 1; i >= 0; i-- {
				moves = append(moves, program.Move{Node: set.At(i), Action: set.Actions(i, nil)[0]})
			}
			return moves
		}),
	}
	rng := rand.New(rand.NewSource(6))
	for name, adv := range adversaries {
		t.Run(name, func(t *testing.T) {
			sub, err := spantree.NewBFSTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSTNO(g, sub, 0)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 5; trial++ {
				s.Randomize(rng)
				sys := program.NewSystem(s, adv)
				res, err := sys.RunUntilLegitimate(int64(5000 * (g.N() + g.M())))
				if err != nil || !res.Converged {
					t.Fatalf("trial %d under %s: %v %+v", trial, name, err, res)
				}
			}
		})
	}
}

// TestSTNOComposedNeedsFairComposition documents the composition
// counterpart of the fairness finding (see fairness_test.go): the
// paper composes STNO with its tree protocol under *fair composition*
// — both layers keep executing. A daemon that
// always serves a node's orientation actions and never its substrate
// action keeps processor-level fairness (the node moves constantly)
// yet can preserve a corrupted parent-pointer cycle forever, with the
// name ranges chasing each other around it. The run below livelocks
// by construction; serving the substrate first (as in the test above)
// or any randomized daemon converges.
func TestSTNOComposedNeedsFairComposition(t *testing.T) {
	t.Parallel()
	g := graph.Grid(3, 3)
	starveSubstrate := daemon.NewAdversarial("orientation-first", func(set program.EnabledSet) []program.Move {
		i := set.Len() - 1 // highest enabled id
		acts := set.Actions(i, nil)
		return []program.Move{{Node: set.At(i), Action: acts[len(acts)-1]}}
	})
	rng := rand.New(rand.NewSource(6))
	sub, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Randomize(rng) // seed 6 yields a parent cycle among nodes 4,5,7,8
	sys := program.NewSystem(s, starveSubstrate)
	res, err := sys.RunUntilLegitimate(200000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Skip("this corruption healed; the livelock needs a substrate parent cycle")
	}
	if sub.Legitimate() {
		t.Fatal("substrate stabilized yet orientation did not — unexpected livelock cause")
	}
}

// TestSTNORunsOnReorderedPorts combines the ψ ablation with the
// protocols: STNO on a port-shuffled graph still orients validly, and
// the DFS-tree equivalence with DFTNO still holds under the new
// ordering (both derive their order from the same ports).
func TestSTNORunsOnReorderedPorts(t *testing.T) {
	t.Parallel()
	base := graph.Grid(3, 3)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5; trial++ {
		perm := make([][]int, base.N())
		for v := 0; v < base.N(); v++ {
			perm[v] = rng.Perm(base.Degree(graph.NodeID(v)))
		}
		g, err := base.Reorder(perm)
		if err != nil {
			t.Fatal(err)
		}
		s := newSTNOOracleDFS(t, g, 0)
		stabilize(t, s, daemon.NewCentral(int64(trial)), int64(5000*(g.N()+g.M())))
		if err := s.Labeling().Validate(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		d := newDFTNOOracle(t, g, 0)
		sn, dn := s.Names(), d.ReferenceNames()
		for v := range sn {
			if sn[v] != dn[v] {
				t.Fatalf("trial %d: DFS-tree STNO %v != DFTNO %v on shuffled ports", trial, sn, dn)
			}
		}
	}
}
