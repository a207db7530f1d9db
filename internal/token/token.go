// Package token implements the depth-first token circulation substrate
// that DFTNO (Chapter 3 of the paper) is layered on: a self-stabilizing
// protocol maintaining a single token that perpetually traverses an
// arbitrary rooted network in deterministic depth-first order, visiting
// every node exactly once per round.
//
// The paper builds on Datta–Johnen–Petit–Villain (SIROCCO'98), whose
// transition tables are not reproduced in the thesis text; Circulator
// is this library's own self-stabilizing realisation of the same layer
// interface: the orientation layer reads only that interface, so any
// self-stabilizing realisation substitutes for the original. Oracle is
// a correct-by-construction, non-stabilizing realisation used to test
// the orientation layer in isolation, mirroring the paper's layered
// proof structure ("after the token circulation stabilizes…").
//
// Both realisations report the three events the orientation layer
// hooks (§3.1): the root generating a fresh token (round start), a
// Forward move delivering the token to an unvisited node, and a
// Backtrack move returning the token from a finished child.
package token

import "netorient/internal/graph"

// Events receives the substrate's token-movement events. The calls
// happen inside the substrate's atomic action execution, so an observer
// that updates its own per-node variables composes with the substrate
// exactly like the paper's macro expansion (Forward(p) → Nodelabel_p).
type Events interface {
	// OnRootStart fires when the root generates the token for a new
	// round (and, per the paper, names itself 0).
	OnRootStart(root graph.NodeID)
	// OnForward fires when node v receives the token for the first
	// time in the current round from its DFS parent.
	OnForward(v, parent graph.NodeID)
	// OnBacktrack fires when node v observes that its child has
	// finished, i.e. the token returns to v.
	OnBacktrack(v, child graph.NodeID)
}

// NopEvents is an Events implementation that ignores everything.
type NopEvents struct{}

// OnRootStart implements Events.
func (NopEvents) OnRootStart(graph.NodeID) {}

// OnForward implements Events.
func (NopEvents) OnForward(graph.NodeID, graph.NodeID) {}

// OnBacktrack implements Events.
func (NopEvents) OnBacktrack(graph.NodeID, graph.NodeID) {}

// Substrate is the read interface the orientation layer needs from a
// token circulation protocol, beyond its program.Protocol behaviour:
// the ancestor pointer A_p maintained by the underlying protocol
// (§2.1.1) and a token-presence test used to gate the edge-labeling
// action (¬Forward(p) ∧ ¬Backtrack(p) in Algorithm 3.1.1).
//
// Locality contract: the orientation layer folds HasToken(v) into its
// own guards and declares 1-hop influence for the composition, so
// HasToken(v) must be decidable from the state of v's closed 1-hop
// neighbourhood — equivalently, a substrate move may change HasToken
// only for the mover and its neighbours. Both realisations here
// satisfy this (Circulator by construction, Oracle because
// consecutive DFS events have adjacent actors); a substrate that does
// not must make the composed protocol widen program.Influencer.
type Substrate interface {
	// Root returns the distinguished root processor r.
	Root() graph.NodeID
	// Parent returns A_v, the current ancestor of v (None for the
	// root or an unset pointer).
	Parent(v graph.NodeID) graph.NodeID
	// HasToken reports whether v currently holds the token, i.e.
	// whether a Forward or Backtrack move is enabled at v.
	HasToken(v graph.NodeID) bool
	// SetObserver registers the orientation layer's event hooks.
	// Passing nil removes the observer.
	SetObserver(ev Events)

	// The four traversal-introspection queries below let the
	// orientation layer decide its legitimacy predicate from local
	// position invariants — max[v] is determined by whether v's
	// subtree is explored and which child it currently explores —
	// instead of recorded per-cycle snapshots (which cost O(n²)
	// bytes). All four must be O(Δ) at worst and decidable from the
	// closed 1-hop neighbourhood of their first argument, matching
	// the locality contract HasToken already obeys.
	//
	// The substrate's legitimate circulation must be the
	// deterministic port-order DFS from the root (the paper's DFTC);
	// both realisations here are, and the orientation layer's
	// reference naming is derived from that traversal directly.

	// Finished reports whether v's subtree is completely explored in
	// the current round (done_v for the circulator).
	Finished(v graph.NodeID) bool
	// Pointing returns the neighbour v's exploration pointer
	// currently designates — the child being explored, or the next
	// unvisited neighbour an in-flight arrow targets — or None.
	Pointing(v graph.NodeID) graph.NodeID
	// SameRound reports whether u's round counter equals v's
	// (seq_u = seq_v for the circulator). Meaningful for neighbours.
	SameRound(u, v graph.NodeID) bool
	// Behind reports whether u's round counter is strictly smaller
	// than v's (seq_u < seq_v for the circulator).
	Behind(u, v graph.NodeID) bool
}
