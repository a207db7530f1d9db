package spantree

import (
	"fmt"
	"math/rand"

	"netorient/internal/graph"
	"netorient/internal/program"
)

// DFSTree is a Collin–Dolev style self-stabilizing depth-first
// spanning tree. Every node maintains the port-path from the root that
// is minimal in lexicographic order (element-wise on outgoing port
// numbers, with a proper prefix smaller than its extensions); the
// minimal path to each node is exactly the path the deterministic
// depth-first traversal first reaches it by, so the resulting parent
// pointers form the DFS tree of the network in port order — the tree
// under which STNO reproduces DFTNO's naming (Chapter 5).
//
// The protocol is a monotone fixpoint computation: each node
// repeatedly recomputes the minimum over its neighbours' paths
// extended by one hop; paths longer than n−1 hops are invalid (⊥).
// It is silent and self-stabilizing under the unfair daemon.
//
// The legitimacy predicate compares each path with the reference
// forest, the port-order DFS from the live roots: a node's true minimal
// path is the port sequence of its tree path there, read back along the
// forest's parent chain, and ⊥ when no root reaches it. The forest is
// re-derived when the root set moves and after every topology delta but
// the removal of a non-tree edge, which cannot change it.
type DFSTree struct {
	g     *graph.Graph
	roots program.Roots

	// path[v] is v's current port-path; nil means ⊥ (invalid).
	path [][]int

	ref graph.Forest

	// wit is the incremental legitimacy witness (see witness.go).
	wit program.ViolationCounter
}

// Compile-time interface compliance.
var (
	_ program.Protocol      = (*DFSTree)(nil)
	_ program.Legitimacy    = (*DFSTree)(nil)
	_ program.Snapshotter   = (*DFSTree)(nil)
	_ program.Randomizer    = (*DFSTree)(nil)
	_ program.SpaceMeter    = (*DFSTree)(nil)
	_ program.ActionNamer   = (*DFSTree)(nil)
	_ program.Influencer    = (*DFSTree)(nil)
	_ program.TopologyAware = (*DFSTree)(nil)
	_ program.Rootable      = (*DFSTree)(nil)
	_ Substrate             = (*DFSTree)(nil)
)

// NewDFSTree returns a DFSTree on g rooted at root, starting from the
// all-⊥ configuration.
func NewDFSTree(g *graph.Graph, root graph.NodeID) (*DFSTree, error) {
	if root < 0 || int(root) >= g.N() {
		return nil, fmt.Errorf("spantree: root %d out of range for %s", root, g)
	}
	t := &DFSTree{
		g:     g,
		roots: program.NewRoots(g, root),
		path:  make([][]int, g.N()),
	}
	t.ref.DFS(g, t.roots.AppendLive)
	return t, nil
}

// rebuild regrows the reference forest from the live roots,
// invalidating the witness when a reference path changed.
func (t *DFSTree) rebuild() {
	if t.ref.DFS(t.g, t.roots.AppendLive) {
		t.wit.Invalidate()
	}
}

// ensureRef regrows the reference forest when the root set moved since
// it was grown.
func (t *DFSTree) ensureRef() {
	if t.roots.Moved() {
		t.rebuild()
	}
}

// BindRootAuthority implements program.Rootable: the root test in
// desired and Parent defers to the authority, and the reference paths
// are one traversal per effective root. A nil authority anchors the
// tree at the fixed root alone.
func (t *DFSTree) BindRootAuthority(a program.RootAuthority) {
	t.roots.Bind(a)
	t.rebuild()
}

// extLess reports whether a++[x] precedes b++[y] in the path order:
// element-wise on ports, a proper prefix before its extensions.
func extLess(a []int, x int, b []int, y int) bool {
	m := min(len(a), len(b))
	for i := range m {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	switch {
	case len(a) < len(b): // a++[x] against b[:m+1]; equal means a proper prefix
		return x <= b[m]
	case len(a) > len(b):
		return a[m] < y
	}
	return x < y
}

func pathEqual(a, b []int) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// desired returns the path v's action would write, as the neighbour q
// and the port p at q whose extension path[q]++[p] it is: the root
// writes the empty path (q = None, root = true); every other node
// writes the minimal one-hop extension of a neighbour's path, or ⊥ (q
// = None) when every candidate is ⊥ or too long. Nothing is built:
// candidates are compared in place.
func (t *DFSTree) desired(v graph.NodeID) (q graph.NodeID, p int, root bool) {
	if t.roots.IsRoot(v) {
		return graph.None, 0, true
	}
	q = graph.None
	for _, w := range t.g.Neighbors(v) {
		if w == graph.None {
			continue
		}
		pw := t.path[w]
		if pw == nil || len(pw)+1 > t.g.N()-1 {
			continue
		}
		port, _ := t.g.PortOf(w, v)
		if q == graph.None || extLess(pw, port, t.path[q], p) {
			q, p = w, port
		}
	}
	return q, p, false
}

// holds reports whether path[v] already is the path desired(v)
// returned as (q, p, root).
func (t *DFSTree) holds(v, q graph.NodeID, p int, root bool) bool {
	pv := t.path[v]
	switch {
	case root:
		return pv != nil && len(pv) == 0
	case q == graph.None:
		return pv == nil
	}
	pq := t.path[q]
	return len(pv) == len(pq)+1 && pv[len(pq)] == p && pathEqual(pv[:len(pq)], pq)
}

// Enabled implements program.Protocol.
func (t *DFSTree) Enabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	if q, p, root := t.desired(v); !t.holds(v, q, p, root) {
		buf = append(buf, ActFix)
	}
	return buf
}

// Execute implements program.Protocol: the one place a path is built.
func (t *DFSTree) Execute(v graph.NodeID, a program.ActionID) bool {
	if a != ActFix {
		return false
	}
	q, p, root := t.desired(v)
	switch {
	case t.holds(v, q, p, root):
		return false
	case root:
		t.path[v] = []int{}
	case q == graph.None:
		t.path[v] = nil
	default:
		t.path[v] = append(append(make([]int, 0, len(t.path[q])+1), t.path[q]...), p)
	}
	return true
}

// Name implements program.Protocol.
func (t *DFSTree) Name() string { return "dfstree" }

// Graph implements program.Protocol.
func (t *DFSTree) Graph() *graph.Graph { return t.g }

// ActionName implements program.ActionNamer.
func (t *DFSTree) ActionName(a program.ActionID) string { return "FixPath" }

// Root implements Substrate.
func (t *DFSTree) Root() graph.NodeID { return t.roots.Root() }

// Parent implements Substrate: the neighbour whose path v's path
// extends, i.e. the neighbour q with path_v = path_q ++ [port of v at
// q]; None while v's path is ⊥ or inconsistent.
func (t *DFSTree) Parent(v graph.NodeID) graph.NodeID {
	if t.roots.IsRoot(v) || t.path[v] == nil || len(t.path[v]) == 0 {
		return graph.None
	}
	last := t.path[v][len(t.path[v])-1]
	prefix := t.path[v][:len(t.path[v])-1]
	for _, q := range t.g.Neighbors(v) {
		if q == graph.None || t.path[q] == nil || len(t.path[q]) != len(prefix) {
			continue
		}
		port, _ := t.g.PortOf(q, v)
		if port == last && pathEqual(t.path[q], prefix) {
			return q
		}
	}
	return graph.None
}

// ParentLocality implements Substrate: Parent(v) is derived by
// matching the path variables of v's neighbours, so it reads one hop
// around v. Layers whose guards call Parent on their neighbours (STNO)
// therefore see this substrate's moves two hops away and must widen
// their influence declaration accordingly.
func (t *DFSTree) ParentLocality() int { return 1 }

// Influence implements program.Influencer, documenting the locality
// audit for the protocol run stand-alone: ActFix writes only path[v],
// and the guard at any node compares its own path against the minimal
// extension of its neighbours' paths, so a move at v changes guards in
// the closed 1-hop neighbourhood only. (The non-local part of this
// substrate is the derived Parent function, covered by ParentLocality,
// not its own guards.)
func (t *DFSTree) Influence(v graph.NodeID, _ program.ActionID, buf []graph.NodeID) []graph.NodeID {
	return program.InfluenceClosedNeighborhood(t.g, v, buf)
}

// Path returns v's current port-path (nil for ⊥). The slice is shared;
// callers must not modify it.
func (t *DFSTree) Path(v graph.NodeID) []int { return t.path[v] }

// Legitimate implements program.Legitimacy: every live node holds the
// true minimal path from its component's root (see dfsViolates).
func (t *DFSTree) Legitimate() bool {
	t.ensureRef()
	for v := range graph.NodeID(t.g.N()) {
		if t.dfsViolates(v) {
			return false
		}
	}
	return true
}

// TopologyChanged implements program.TopologyAware. The per-node state
// is a port-path compared by value, so nothing can dangle — desired()
// recomputes against the current adjacency and hole ports are skipped
// — and rebinding is only regrowing the reference forest the
// legitimacy predicate compares against (invalidating the witness when
// a reference path changed), unless the delta removed a non-tree edge.
// Guards read one hop, so the influence ball is the touched set's
// closed neighbourhoods. Note the *derived* Parent function still reads
// ParentLocality() hops; layers over this substrate widen their own
// balls accordingly, exactly as they do for moves.
func (t *DFSTree) TopologyChanged(d graph.Delta, buf []graph.NodeID) []graph.NodeID {
	if n := t.g.N(); len(t.path) < n {
		t.path = append(t.path, make([][]int, n-len(t.path))...)
		t.wit.Invalidate()
	}
	if d.Kind != graph.EdgeRemoved || t.ref.TreeEdge(d.U, d.V) {
		t.roots.Moved() // the rebuild reads the current root set
		t.rebuild()
	}
	for _, v := range d.Touched {
		buf = program.InfluenceClosedNeighborhood(t.g, v, buf)
	}
	return buf
}

// Snapshot implements program.Snapshotter: per node, the path length
// and its ports, or -1 for ⊥ (distinct from the empty path).
func (t *DFSTree) Snapshot() []byte {
	w := program.NewSnapshotWriter(4 * t.g.N())
	for v := 0; v < t.g.N(); v++ {
		if t.path[v] == nil {
			w.Int(-1)
			continue
		}
		w.Int(len(t.path[v]))
		for _, p := range t.path[v] {
			w.Int(p)
		}
	}
	return w.Bytes()
}

// Restore implements program.Snapshotter.
func (t *DFSTree) Restore(data []byte) error {
	r := program.NewSnapshotReader(data)
	for v := 0; v < t.g.N(); v++ {
		l := r.Int()
		if l == -1 {
			t.path[v] = nil
			continue
		}
		if l < 0 || l > t.g.N() {
			return fmt.Errorf("spantree: path length %d out of range", l)
		}
		p := make([]int, l)
		for i := range p {
			p[i] = r.Int()
		}
		t.path[v] = p
	}
	return r.Err()
}

// CorruptNode implements program.NodeCorruptor: v takes a random
// (possibly infeasible) path of bounded length, or ⊥.
func (t *DFSTree) CorruptNode(v graph.NodeID, rng *rand.Rand) {
	maxLen := t.g.N() - 1
	if maxLen < 1 {
		maxLen = 1
	}
	if rng.Intn(3) == 0 {
		t.path[v] = nil
		return
	}
	l := rng.Intn(maxLen + 1)
	p := make([]int, l)
	maxPort := t.g.MaxDegree()
	if maxPort < 1 {
		maxPort = 1
	}
	for i := range p {
		p[i] = rng.Intn(maxPort)
	}
	t.path[v] = p
}

// Randomize implements program.Randomizer.
func (t *DFSTree) Randomize(rng *rand.Rand) {
	for v := 0; v < t.g.N(); v++ {
		t.CorruptNode(graph.NodeID(v), rng)
	}
}

// StateBits implements program.SpaceMeter: a path stores up to n−1
// port numbers — the O(n·log Δ) cost known for Collin–Dolev trees.
func (t *DFSTree) StateBits(v graph.NodeID) int {
	return (t.g.N() - 1) * program.Log2Ceil(t.g.MaxDegree()+1)
}
