package program

import "netorient/internal/graph"

// Roots is the root set a rooted protocol anchors at: its fixed root,
// or whatever nodes a bound RootAuthority designates. With no authority
// bound it is the degenerate authority whose only root is the fixed
// root, so a stack keeps one per-root form of every root-derived
// computation (reference traversals, target vectors, witness
// bucketings) and never forks on whether an authority is bound.
//
// Roots also owns the stack's staleness key for those derived facts:
// the authority's RootsVersion, or, with none bound, the fixed root's
// liveness epoch (graph.RootEpoch), which moves exactly when the live
// root set {root} does. Moved compares the key against the one seen at
// the last look.
type Roots struct {
	g    *graph.Graph
	root graph.NodeID
	auth RootAuthority
	seen uint64
}

// NewRoots returns the root set of g anchored at the fixed root.
func NewRoots(g *graph.Graph, root graph.NodeID) Roots {
	return Roots{g: g, root: root, seen: g.RootEpoch(root)}
}

// Root returns the fixed root.
func (r *Roots) Root() graph.NodeID { return r.root }

// Bind defers the root test to a (nil: the fixed root alone) and takes
// its staleness key as seen.
func (r *Roots) Bind(a RootAuthority) {
	r.auth = a
	r.seen = r.version()
}

// IsRoot reports whether v currently acts as a root. With no authority
// bound this is the fixed-root comparison of the paper's protocols,
// liveness aside: guards only run at live nodes.
func (r *Roots) IsRoot(v graph.NodeID) bool {
	if r.auth == nil {
		return v == r.root
	}
	return r.auth.IsRoot(v)
}

// version is the current staleness key.
func (r *Roots) version() uint64 {
	if r.auth == nil {
		return r.g.RootEpoch(r.root)
	}
	return r.auth.RootsVersion()
}

// Moved reports whether the root set may have changed since the last
// look, and takes the current key as seen. A consumer that rebuilds
// unconditionally calls it first to record what it rebuilt against.
func (r *Roots) Moved() bool {
	v := r.version()
	if v == r.seen {
		return false
	}
	r.seen = v
	return true
}

// AppendLive appends the live roots to buf in ascending id order: the
// fixed root if it is alive, or every live node the authority
// designates.
func (r *Roots) AppendLive(buf []graph.NodeID) []graph.NodeID {
	if r.auth == nil {
		if r.g.Alive(r.root) {
			buf = append(buf, r.root)
		}
		return buf
	}
	for v := 0; v < r.g.N(); v++ {
		if id := graph.NodeID(v); r.g.Alive(id) && r.auth.IsRoot(id) {
			buf = append(buf, id)
		}
	}
	return buf
}
