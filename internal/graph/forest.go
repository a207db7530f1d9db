package graph

import "slices"

// Forest is a reusable reference forest grown from a list of roots: the
// one place the rooted stacks derive what their legitimacy predicates
// compare live state with. DFS grows the port-order depth-first forest
// (DFTNO's preorder naming, the DFS tree's minimal port paths), BFS the
// multi-source breadth-first forest (the BFS tree's distances). Both
// walk the roots in the given order and skip a root an earlier walk
// already reached, so a transient second root inside one component
// keeps the first root's tree.
//
// Every call rewrites the arrays in place and allocates only when the
// id space grew; new ids start unreached. Like Marks, a Forest is owned
// by its user: the accessors may be read concurrently, but a walk must
// not overlap them. The per-node entries are int32, which covers any id
// space a Graph holds in memory at half the footprint.
type Forest struct {
	parent []int32  // None for roots and unreached nodes
	port   []int32  // the parent's port to the node; −1 for roots and unreached nodes
	name   []int32  // DFS: preorder name in the node's tree (root = 0); −1 unreached
	last   []int32  // DFS: the last name in the node's subtree; −1 unreached
	depth  []int32  // BFS: distance from the node's root; −1 unreached
	seen   Marks    // the nodes the last walk reached
	queue  []NodeID // the live roots, then (BFS) the frontier
}

// grow sizes the shared arrays and the root and frontier buffer for n
// ids and empties the reached set.
func (f *Forest) grow(n int) {
	f.parent = extend(f.parent, n)
	f.port = extend(f.port, n)
	if cap(f.queue) < n {
		f.queue = make([]NodeID, 0, n)
	}
	f.seen.Reset(n)
}

// extend appends −1 (None, for parents) to s until it holds n
// entries, growing it at most once.
func extend(s []int32, n int) []int32 {
	if len(s) >= n {
		return s
	}
	s = slices.Grow(s, n-len(s))
	for len(s) < n {
		s = append(s, -1)
	}
	return s
}

// set writes x to s[v] and reports whether that changed it.
func set(s []int32, v NodeID, x int) bool {
	if s[v] == int32(x) {
		return false
	}
	s[v] = int32(x)
	return true
}

// DFS rewrites f as the port-order depth-first forest of g grown from
// the roots that live appends to its argument (a reused buffer), in that
// order, and reports whether any parent, port, name or last entry
// changed: DFTNO's predicate reads the names and lasts, the DFS tree's
// the parent/port chains. The walk keeps no stack: backtracking from v
// resumes v's parent at the port after v's.
func (f *Forest) DFS(g *Graph, live func([]NodeID) []NodeID) bool {
	n, changed := g.N(), false
	f.grow(n)
	f.name = extend(f.name, n)
	f.last = extend(f.last, n)
	f.queue = live(f.queue[:0])
	for _, r := range f.queue {
		if !f.seen.Add(r) {
			continue
		}
		changed = f.setDFS(r, None, -1, 0) || changed
		next := 1
		v, port := r, 0
		for {
			if port < g.Ports(v) {
				if q := g.Neighbor(v, port); q != None && f.seen.Add(q) {
					changed = f.setDFS(q, v, port, next) || changed
					next++
					v, port = q, 0
				} else {
					port++
				}
				continue
			}
			changed = set(f.last, v, next-1) || changed
			if v == r {
				break
			}
			v, port = NodeID(f.parent[v]), int(f.port[v])+1
		}
	}
	for v := range NodeID(n) {
		if !f.seen.Has(v) {
			changed = f.setDFS(v, None, -1, -1) || changed
			changed = set(f.last, v, -1) || changed
		}
	}
	return changed
}

// setDFS writes v's parent, port and name and reports whether any of
// them changed.
func (f *Forest) setDFS(v, parent NodeID, port, name int) bool {
	changed := set(f.parent, v, int(parent))
	changed = set(f.port, v, port) || changed
	return set(f.name, v, name) || changed
}

// BFS rewrites f as the multi-source breadth-first forest of g grown
// from the roots that live appends to its argument, in that order: the
// roots form the first frontier, and each node scans its neighbours in
// port order. It reports whether any depth changed; parents and ports
// are rewritten without being compared, as no predicate reads them.
func (f *Forest) BFS(g *Graph, live func([]NodeID) []NodeID) bool {
	n, changed := g.N(), false
	f.grow(n)
	f.depth = extend(f.depth, n)
	q := live(f.queue[:0])
	roots := 0
	for _, r := range q {
		if f.seen.Add(r) {
			q[roots] = r
			roots++
			f.parent[r], f.port[r] = -1, -1
			changed = set(f.depth, r, 0) || changed
		}
	}
	q = q[:roots]
	for head := 0; head < len(q); head++ {
		u := q[head]
		for port, w := range g.Neighbors(u) {
			if w != None && f.seen.Add(w) {
				f.parent[w], f.port[w] = int32(u), int32(port)
				changed = set(f.depth, w, int(f.depth[u])+1) || changed
				q = append(q, w)
			}
		}
	}
	f.queue = q
	for v := range NodeID(n) {
		if !f.seen.Has(v) {
			f.parent[v], f.port[v] = -1, -1
			changed = set(f.depth, v, -1) || changed
		}
	}
	return changed
}

// Reached reports whether the last walk reached v.
func (f *Forest) Reached(v NodeID) bool { return f.seen.Has(v) }

// Parent returns v's parent in the forest: None for a root or an
// unreached node.
func (f *Forest) Parent(v NodeID) NodeID { return NodeID(f.parent[v]) }

// Name returns v's DFS preorder name within its tree (root = 0), or −1
// when v is unreached.
func (f *Forest) Name(v NodeID) int { return int(f.name[v]) }

// Last returns the last DFS name in v's subtree, name + |subtree| − 1
// (preorder numbers a subtree contiguously), or −1 when v is
// unreached.
func (f *Forest) Last(v NodeID) int { return int(f.last[v]) }

// Depth returns v's BFS distance from its tree's root, or −1 when v is
// unreached.
func (f *Forest) Depth(v NodeID) int { return int(f.depth[v]) }

// IsPortPath reports whether v is reached and path lists the ports
// along its tree path, from the root's port down to v's parent's port
// to v. It walks the parent chain back from v: O(len(path)).
func (f *Forest) IsPortPath(v NodeID, path []int) bool {
	if !f.seen.Has(v) {
		return false
	}
	i := len(path)
	for ; f.parent[v] >= 0; v = NodeID(f.parent[v]) {
		i--
		if i < 0 || path[i] != int(f.port[v]) {
			return false
		}
	}
	return i == 0
}

// TreeEdge reports whether {u,v} is an edge of the forest. Removing an
// edge that is not leaves both walks unchanged: when a walk scans a
// port of a non-tree edge, its far end is already reached (otherwise
// the scan would have made it a child there), so the walk skips that
// port exactly as it skips the hole the removal leaves. Owners rebuild
// after every other delta.
func (f *Forest) TreeEdge(u, v NodeID) bool { return f.Parent(u) == v || f.Parent(v) == u }
