package spantree

import (
	"fmt"
	"math/rand"

	"netorient/internal/graph"
	"netorient/internal/program"
)

// BFSTree is the classic self-stabilizing breadth-first spanning tree:
// the root holds distance 0; every other node sets its distance to one
// more than its smallest neighbouring distance (capped at n, the
// "infinite" value) and adopts the first such neighbour in port order
// as its parent. The protocol is silent and self-stabilizing under the
// unfair distributed daemon: distances converge level by level to the
// true BFS distances, after which no action is enabled.
//
// The legitimacy predicate compares the distances with a reference
// forest, the multi-source BFS from the live roots: a node's reference
// distance is its depth there, or the "infinite" value n when no root
// reaches it. The forest is re-derived when the root set moves (an
// IsRoot flip re-anchors distances without touching any node) and
// after every topology delta but the removal of a non-tree edge, which
// cannot change it.
type BFSTree struct {
	g     *graph.Graph
	roots program.Roots

	dist []int
	par  []graph.NodeID

	ref graph.Forest

	// wit is the incremental legitimacy witness (see witness.go).
	wit program.ViolationCounter
}

// ActFix is BFSTree's single action: recompute distance and parent.
const ActFix program.ActionID = 0

// Compile-time interface compliance.
var (
	_ program.Protocol      = (*BFSTree)(nil)
	_ program.Legitimacy    = (*BFSTree)(nil)
	_ program.Snapshotter   = (*BFSTree)(nil)
	_ program.Randomizer    = (*BFSTree)(nil)
	_ program.SpaceMeter    = (*BFSTree)(nil)
	_ program.ActionNamer   = (*BFSTree)(nil)
	_ program.Influencer    = (*BFSTree)(nil)
	_ program.TopologyAware = (*BFSTree)(nil)
	_ program.Rootable      = (*BFSTree)(nil)
	_ Substrate             = (*BFSTree)(nil)
)

// NewBFSTree returns a BFSTree on g rooted at root, starting from the
// all-infinite configuration (a worst case; use Randomize for
// adversarial starts).
func NewBFSTree(g *graph.Graph, root graph.NodeID) (*BFSTree, error) {
	if root < 0 || int(root) >= g.N() {
		return nil, fmt.Errorf("spantree: root %d out of range for %s", root, g)
	}
	t := &BFSTree{
		g:     g,
		roots: program.NewRoots(g, root),
		dist:  make([]int, g.N()),
		par:   make([]graph.NodeID, g.N()),
	}
	for v := range t.dist {
		t.dist[v] = g.N()
		t.par[v] = graph.None
	}
	t.ref.BFS(g, t.roots.AppendLive)
	return t, nil
}

// rebuild regrows the reference forest from the live roots,
// invalidating the witness when a reference distance changed.
func (t *BFSTree) rebuild() {
	if t.ref.BFS(t.g, t.roots.AppendLive) {
		t.wit.Invalidate()
	}
}

// ensureRef regrows the reference forest when the root set moved since
// it was grown.
func (t *BFSTree) ensureRef() {
	if t.roots.Moved() {
		t.rebuild()
	}
}

// BindRootAuthority implements program.Rootable: the root test in
// desired and Parent defers to the authority, and the reference
// distances become the multi-source BFS from the effective root set,
// re-derived lazily whenever it moves. A nil authority anchors the
// tree at the fixed root alone.
func (t *BFSTree) BindRootAuthority(a program.RootAuthority) {
	t.roots.Bind(a)
	t.rebuild()
}

// Name implements program.Protocol.
func (t *BFSTree) Name() string { return "bfstree" }

// Graph implements program.Protocol.
func (t *BFSTree) Graph() *graph.Graph { return t.g }

// Root implements Substrate.
func (t *BFSTree) Root() graph.NodeID { return t.roots.Root() }

// Parent implements Substrate.
func (t *BFSTree) Parent(v graph.NodeID) graph.NodeID {
	if t.roots.IsRoot(v) {
		return graph.None
	}
	return t.par[v]
}

// ParentLocality implements Substrate: par[v] is v's own variable.
func (t *BFSTree) ParentLocality() int { return 0 }

// Influence implements program.Influencer, documenting the locality
// audit: ActFix writes only dist[v] and par[v], and the guard at any
// node reads only its own and its neighbours' distances, so a move at
// v can change guards in the closed 1-hop neighbourhood only — the
// scheduler's default, declared here explicitly.
func (t *BFSTree) Influence(v graph.NodeID, _ program.ActionID, buf []graph.NodeID) []graph.NodeID {
	return program.InfluenceClosedNeighborhood(t.g, v, buf)
}

// Dist returns v's current distance variable.
func (t *BFSTree) Dist(v graph.NodeID) int { return t.dist[v] }

// desired returns the distance and parent v's action would write.
func (t *BFSTree) desired(v graph.NodeID) (int, graph.NodeID) {
	if t.roots.IsRoot(v) {
		return 0, graph.None
	}
	min := t.g.N()
	for _, q := range t.g.Neighbors(v) {
		if q != graph.None && t.dist[q] < min {
			min = t.dist[q]
		}
	}
	if min >= t.g.N() {
		return t.g.N(), graph.None
	}
	d := min + 1
	if d > t.g.N() {
		d = t.g.N()
	}
	for _, q := range t.g.Neighbors(v) {
		if q != graph.None && t.dist[q] == min {
			return d, q
		}
	}
	return d, graph.None
}

// Enabled implements program.Protocol.
func (t *BFSTree) Enabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	d, p := t.desired(v)
	if t.dist[v] != d || t.par[v] != p {
		buf = append(buf, ActFix)
	}
	return buf
}

// Execute implements program.Protocol.
func (t *BFSTree) Execute(v graph.NodeID, a program.ActionID) bool {
	if a != ActFix {
		return false
	}
	d, p := t.desired(v)
	if t.dist[v] == d && t.par[v] == p {
		return false
	}
	t.dist[v] = d
	t.par[v] = p
	return true
}

// ActionName implements program.ActionNamer.
func (t *BFSTree) ActionName(a program.ActionID) string { return "FixDist" }

// Legitimate implements program.Legitimacy: every live node holds the
// true BFS distance and the first minimal neighbour as parent (see
// bfsViolates). On a disconnected graph the true distance of a node
// whose component lost the root is the "infinite" value n with no
// parent — any smaller value strictly increases under desired, so the
// orphan fixpoint is all-n: a locally detectable orphan state. The
// reference is the multi-source BFS from the root set, so under a
// bound authority a component with an acting root converges to
// *local* legitimacy instead of the degraded all-n fixpoint.
func (t *BFSTree) Legitimate() bool {
	t.ensureRef()
	for v := range graph.NodeID(t.g.N()) {
		if t.bfsViolates(v) {
			return false
		}
	}
	return true
}

// TopologyChanged implements program.TopologyAware: clamp parents that
// stopped being neighbours and out-of-range distances at the touched
// nodes, and regrow the reference forest the legitimacy predicate
// compares against (O(n+m) — the distances are a global derived fact;
// the guards themselves stay 1-hop local, so the returned influence
// ball is the touched set's closed neighbourhoods), unless the delta
// removed a non-tree edge. When the reference distances actually
// changed, the witness counters built on them are invalidated and
// lazily re-arm.
func (t *BFSTree) TopologyChanged(d graph.Delta, buf []graph.NodeID) []graph.NodeID {
	if n := t.g.N(); len(t.dist) < n {
		for len(t.dist) < n {
			t.dist = append(t.dist, n)
			t.par = append(t.par, graph.None)
		}
		t.wit.Invalidate()
	}
	for _, v := range d.Touched {
		t.clamp(v)
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

// clamp confines v's distance to 0..N and drops a parent that is no
// longer a neighbour. Restore applies it to decoded values and
// TopologyChanged to the touched nodes.
func (t *BFSTree) clamp(v graph.NodeID) {
	t.dist[v] = min(max(t.dist[v], 0), t.g.N())
	if t.par[v] != graph.None && !t.g.HasEdge(v, t.par[v]) {
		t.par[v] = graph.None
	}
}

// Snapshot implements program.Snapshotter.
func (t *BFSTree) Snapshot() []byte {
	w := program.NewSnapshotWriter(4 * t.g.N())
	for v := 0; v < t.g.N(); v++ {
		w.Int(t.dist[v])
		w.Int(int(t.par[v]))
	}
	return w.Bytes()
}

// Restore implements program.Snapshotter.
func (t *BFSTree) Restore(data []byte) error {
	r := program.NewSnapshotReader(data)
	for v := 0; v < t.g.N(); v++ {
		t.dist[v] = r.Int()
		t.par[v] = graph.NodeID(r.Int())
		t.clamp(graph.NodeID(v))
	}
	return r.Err()
}

// CorruptNode implements program.NodeCorruptor.
func (t *BFSTree) CorruptNode(v graph.NodeID, rng *rand.Rand) {
	t.dist[v] = rng.Intn(t.g.N() + 1)
	if rng.Intn(2) == 0 || t.g.Ports(v) == 0 {
		t.par[v] = graph.None
	} else {
		// Drawing over the port space keeps seeded streams identical
		// on hole-free graphs; a draw landing on a hole yields None.
		t.par[v] = t.g.Neighbor(v, rng.Intn(t.g.Ports(v)))
	}
}

// Randomize implements program.Randomizer.
func (t *BFSTree) Randomize(rng *rand.Rand) {
	for v := 0; v < t.g.N(); v++ {
		t.CorruptNode(graph.NodeID(v), rng)
	}
}

// StateBits implements program.SpaceMeter: dist costs ⌈log₂(N+1)⌉
// bits, the parent pointer ⌈log₂(Δ_v+1)⌉ — the O(Δ×log N) extra space
// Chapter 5 charges STNO for maintaining the tree comes from the
// orientation layer's per-child Start array, not from this substrate.
func (t *BFSTree) StateBits(v graph.NodeID) int {
	return program.Log2Ceil(t.g.N()+1) + program.Log2Ceil(t.g.Degree(v)+2)
}
