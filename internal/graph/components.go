package graph

// This file implements incremental connected-component tracking over
// the mutable graph: every live node carries a component label,
// maintained across AddEdge/RemoveEdge/AddNode/RemoveNode in time
// proportional to the affected region rather than the whole graph.
//
//   - AddEdge joining two components merges them by relabelling the
//     smaller side (O(min component)).
//   - RemoveEdge runs a bounded bidirectional search from both
//     endpoints of the removed edge, expanding the two frontiers in
//     lockstep; the searches either meet (no split, cost bounded by
//     the reconnecting path neighbourhood) or one side exhausts first
//     and becomes a fresh component (O(min side)).
//   - RemoveNode can split its component into several parts, one per
//     group of ex-neighbours; the first part keeps the old label and
//     every further part is relabelled fresh.
//   - AddNode starts a fresh singleton component.
//
// Labels are arbitrary small ints, recycled through a free list; they
// are NOT stable across mutations — a merge or split relabels nodes
// that the mutation's Touched set does not mention. CompVersion()
// increments exactly on those relabelling events, so a consumer that
// caches per-node component-derived facts (the per-component witness
// counters in internal/token and internal/core) can detect staleness
// with one comparison and rebuild lazily. Single-node birth/death
// (AddNode, RemoveNode of a then-singleton) changes the component
// *count* but no surviving node's label, and does not bump the
// version.

// ComponentOf returns the component label of v, or -1 when v is dead.
// Labels partition the live nodes: u and v are connected iff their
// labels are equal. The first call initialises tracking in O(n+m);
// subsequent queries are O(1).
func (g *Graph) ComponentOf(v NodeID) int {
	g.ensureComp()
	return int(g.comp[v])
}

// Components returns the number of connected components of the live
// subgraph (0 when no node is alive).
func (g *Graph) Components() int {
	g.ensureComp()
	return g.ncomp
}

// ComponentSize returns the number of live nodes carrying label c, or
// 0 for a freed or never-allocated label.
func (g *Graph) ComponentSize(c int) int {
	g.ensureComp()
	if c < 0 || c >= len(g.compSize) {
		return 0
	}
	return g.compSize[c]
}

// SameComponent reports whether live nodes u and v are connected.
func (g *Graph) SameComponent(u, v NodeID) bool {
	g.ensureComp()
	return g.comp[u] >= 0 && g.comp[u] == g.comp[v]
}

// CompVersion returns the component-relabelling version: it increments
// exactly when a mutation changes component labels beyond its Touched
// set (a merge or a split). Consumers caching component-derived
// per-node facts compare it to decide between incremental refresh and
// full rebuild.
func (g *Graph) CompVersion() uint64 {
	g.ensureComp()
	return g.compVer
}

// ensureComp initialises the component labelling on first use.
func (g *Graph) ensureComp() { g.compOnce.Do(g.buildComp) }

// buildComp labels every live node's component from scratch.
func (g *Graph) buildComp() {
	n := g.N()
	g.comp = make([]int32, n)
	for v := range g.comp {
		g.comp[v] = -1
	}
	g.compSize = g.compSize[:0]
	g.compFree = g.compFree[:0]
	g.ncomp = 0
	for v := 0; v < n; v++ {
		if !g.Alive(NodeID(v)) || g.comp[v] >= 0 {
			continue
		}
		c := g.allocLabel()
		size := 0
		q := append(g.queueA[:0], NodeID(v))
		g.comp[v] = c
		for len(q) > 0 {
			x := q[len(q)-1]
			q = q[:len(q)-1]
			size++
			for _, w := range g.adj[x] {
				if w != None && g.comp[w] < 0 {
					g.comp[w] = c
					q = append(q, w)
				}
			}
		}
		g.queueA = q[:0]
		g.compSize[c] = size
		g.ncomp++
	}
}

// allocLabel returns a fresh (or recycled) component label with size 0.
func (g *Graph) allocLabel() int32 {
	if k := len(g.compFree); k > 0 {
		c := g.compFree[k-1]
		g.compFree = g.compFree[:k-1]
		g.compSize[c] = 0
		return c
	}
	g.compSize = append(g.compSize, 0)
	return int32(len(g.compSize) - 1)
}

func (g *Graph) freeLabel(c int32) {
	g.compSize[c] = 0
	g.compFree = append(g.compFree, c)
}

// compAddEdge merges the endpoints' components after {u,v} was
// inserted, relabelling the smaller side. It reports whether two
// distinct components merged.
func (g *Graph) compAddEdge(u, v NodeID) bool {
	cu, cv := g.comp[u], g.comp[v]
	if cu == cv {
		return false
	}
	start, from, into := u, cu, cv
	if g.compSize[cu] >= g.compSize[cv] {
		start, from, into = v, cv, cu
	}
	// Relabel `from`'s component to `into`, walking only nodes still
	// carrying the old label (the new edge leads out of it).
	q := append(g.queueA[:0], start)
	g.comp[start] = into
	moved := 1
	for len(q) > 0 {
		x := q[len(q)-1]
		q = q[:len(q)-1]
		for _, w := range g.adj[x] {
			if w != None && g.comp[w] == from {
				g.comp[w] = into
				moved++
				q = append(q, w)
			}
		}
	}
	g.queueA = q[:0]
	g.compSize[into] += moved
	g.freeLabel(from)
	g.ncomp--
	g.compVer++
	return true
}

// compRemoveEdge checks whether removing {u,v} split their component,
// using a bounded bidirectional search: frontiers from u and v expand
// in lockstep until they meet (still connected) or one side exhausts
// (that side — the smaller — becomes a fresh component). Runs after
// the edge is structurally gone.
func (g *Graph) compRemoveEdge(u, v NodeID) bool {
	c := g.comp[u]
	g.seenA.Reset(g.N())
	g.seenB.Reset(g.N())
	qa := append(g.queueA[:0], u)
	qb := append(g.queueB[:0], v)
	g.seenA.Add(u)
	g.seenB.Add(v)
	ha, hb := 0, 0
	defer func() { g.queueA, g.queueB = qa[:0], qb[:0] }()
	for {
		if ha == len(qa) {
			g.relabelSplit(qa, c)
			return true
		}
		x := qa[ha]
		ha++
		for _, w := range g.adj[x] {
			if w == None {
				continue
			}
			if g.seenB.Has(w) {
				return false
			}
			if g.seenA.Add(w) {
				qa = append(qa, w)
			}
		}
		if hb == len(qb) {
			g.relabelSplit(qb, c)
			return true
		}
		y := qb[hb]
		hb++
		for _, w := range g.adj[y] {
			if w == None {
				continue
			}
			if g.seenA.Has(w) {
				return false
			}
			if g.seenB.Add(w) {
				qb = append(qb, w)
			}
		}
	}
}

// relabelSplit moves the given fully-enumerated node set out of
// component old into a fresh component.
func (g *Graph) relabelSplit(nodes []NodeID, old int32) {
	nc := g.allocLabel()
	for _, v := range nodes {
		g.comp[v] = nc
	}
	g.compSize[nc] = len(nodes)
	g.compSize[old] -= len(nodes)
	g.ncomp++
	g.compVer++
}

// compRemoveNode fixes the labelling after v was detached and marked
// dead; exn are v's ex-neighbours. The part of the old component
// containing the first ex-neighbour keeps the old label; every part
// not reachable from it is relabelled fresh. Reports whether the
// partition changed beyond v's own death.
func (g *Graph) compRemoveNode(v NodeID, exn []NodeID) bool {
	c := g.comp[v]
	g.comp[v] = -1
	g.compSize[c]--
	if g.compSize[c] == 0 {
		g.freeLabel(c)
		g.ncomp--
		return false
	}
	if len(exn) < 2 {
		return false
	}
	g.seenA.Reset(g.N())
	// Enumerate the part containing exn[0]; it keeps label c.
	q := append(g.queueA[:0], exn[0])
	g.seenA.Add(exn[0])
	for len(q) > 0 {
		x := q[len(q)-1]
		q = q[:len(q)-1]
		for _, w := range g.adj[x] {
			if w != None && g.seenA.Add(w) {
				q = append(q, w)
			}
		}
	}
	split := false
	for _, s := range exn[1:] {
		if g.seenA.Has(s) || g.comp[s] != c {
			continue // reachable from exn[0], or already relabelled below
		}
		// A separated part: relabel it fresh.
		nc := g.allocLabel()
		size := 0
		q = append(q[:0], s)
		g.comp[s] = nc
		for len(q) > 0 {
			x := q[len(q)-1]
			q = q[:len(q)-1]
			size++
			for _, w := range g.adj[x] {
				if w != None && g.comp[w] == c {
					g.comp[w] = nc
					q = append(q, w)
				}
			}
		}
		g.compSize[nc] = size
		g.compSize[c] -= size
		g.ncomp++
		split = true
	}
	g.queueA = q[:0]
	if split {
		g.compVer++
	}
	return split
}

// compAddNode registers the (re)born node as a fresh singleton
// component. Runs after the node is alive; for an appended slot the
// comp array is grown here.
func (g *Graph) compAddNode(id NodeID) {
	for len(g.comp) < g.N() {
		g.comp = append(g.comp, -1)
	}
	c := g.allocLabel()
	g.comp[id] = c
	g.compSize[c] = 1
	g.ncomp++
}
