// Package spantree implements the spanning-tree substrates that STNO
// (Chapter 4 of the paper) is layered on. The paper allows "any
// self-stabilizing spanning tree construction algorithm"; this package
// provides three:
//
//   - BFSTree — the classic min-distance breadth-first spanning tree
//     (Chen–Yu–Huang / Dolev–Israeli–Moran style), self-stabilizing
//     under the unfair daemon, which is exactly the daemon the paper
//     prescribes for STNO's substrate.
//   - DFSTree — a Collin–Dolev style lexicographic depth-first
//     spanning tree, used to reproduce the paper's Chapter 5
//     observation that STNO over a DFS tree names nodes exactly like
//     DFTNO.
//   - Oracle — a fixed, correct-by-construction tree with no actions,
//     for testing the orientation layer in isolation.
package spantree

import "netorient/internal/graph"

// Substrate is the read interface the orientation layer needs from a
// spanning-tree protocol: the parent pointer A_p of every node
// (§2.1.1). The tree's legitimacy L_ST, conjoined in L_ST ∧ SP1 ∧ SP2,
// is its program.Legitimacy.
type Substrate interface {
	// Root returns the distinguished root processor r.
	Root() graph.NodeID
	// Parent returns A_v under the current configuration (None for
	// the root or an unset pointer). Orientation-layer guards read
	// this on every evaluation, so it must be cheap.
	Parent(v graph.NodeID) graph.NodeID
	// ParentLocality returns the radius of the ball around v that
	// Parent(v) reads: 0 when Parent(v) is a function of v's own
	// variables only (BFSTree's explicit pointer, Oracle's fixed
	// tree), 1 when it also consults v's neighbours (DFSTree derives
	// the parent by matching the neighbours' path variables). The
	// orientation layer widens its program.Influencer declaration by
	// this amount: a substrate move at v can change Parent(q) for
	// q within ParentLocality hops of v, and hence guards one hop
	// further out.
	ParentLocality() int
}

// Children collects, in the parent's port order, the current children
// of v under the substrate's parent pointers: the paper's D_p set.
// The result is appended to buf.
func Children(g *graph.Graph, sub Substrate, v graph.NodeID, buf []graph.NodeID) []graph.NodeID {
	for _, q := range g.Neighbors(v) {
		if q != graph.None && sub.Parent(q) == v {
			buf = append(buf, q)
		}
	}
	return buf
}

// ParentVector materialises the substrate's parent pointers.
func ParentVector(g *graph.Graph, sub Substrate) []graph.NodeID {
	out := make([]graph.NodeID, g.N())
	for v := 0; v < g.N(); v++ {
		out[v] = sub.Parent(graph.NodeID(v))
	}
	return out
}
