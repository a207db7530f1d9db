// Package graph provides the network substrate for the orientation
// protocols: undirected connected graphs with *ordered* adjacency lists.
//
// The order of a node's adjacency list defines its local port numbering
// (the ψ-ordering of the paper, §2.2); protocols that traverse neighbours
// "in local order" depend on it, so the order is part of the graph's
// identity and is preserved by all operations.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a processor. Valid IDs are 0..N()-1.
type NodeID int

// None is the sentinel "no node" value used for absent parents and
// unset pointers.
const None NodeID = -1

// Graph is an undirected graph with ordered adjacency lists. The zero
// value is an empty graph; use a Builder or a generator to create one.
//
// A freshly built Graph is safe for concurrent readers. Graphs can
// also be mutated in place after construction — AddEdge, RemoveEdge,
// AddNode, RemoveNode in delta.go — under the mutable-graph contract
// documented there: removed edges leave None holes in the adjacency
// lists so surviving ports keep their numbers, and removed nodes keep
// their slot (dead) so NodeIDs stay stable. Mutation is not safe
// concurrently with readers.
type Graph struct {
	adj   [][]NodeID
	ports []map[NodeID]int
	edges int

	deg       []int    // live degree per node (holes excluded)
	alive     []bool   // nil ⇒ every node alive
	dead      int      // number of dead nodes
	version   uint64   // monotone topology version
	liveEpoch []uint64 // nil ⇒ no liveness flip ever; per-node flip counter

	// Incremental connected-component tracking (components.go). comp is
	// nil until the first query or mutation initialises it under
	// compOnce, so concurrent first readers do not race; from then on
	// it is maintained across every mutation.
	compOnce sync.Once
	comp     []int32 // component label per node; -1 for dead nodes
	compSize []int   // live size per label (stale entries for freed labels)
	compFree []int32 // freed labels available for reuse
	ncomp    int     // number of live components
	compVer  uint64  // bumped whenever labels change beyond the touched set

	// Scratch for the bounded split search (components.go).
	seenA, seenB   Marks
	queueA, queueB []NodeID
}

// Builder accumulates edges for a Graph.
type Builder struct {
	n   int
	adj [][]NodeID
	set []map[NodeID]bool
}

// Errors reported by Builder and parsers.
var (
	ErrSelfLoop      = errors.New("graph: self-loop")
	ErrDuplicateEdge = errors.New("graph: duplicate edge")
	ErrNotConnected  = errors.New("graph: not connected")
)

// NodeRangeError reports a node id outside 0..N-1.
type NodeRangeError struct {
	Node NodeID
	N    int
}

func (e *NodeRangeError) Error() string {
	return fmt.Sprintf("graph: node %d out of range [0,%d)", e.Node, e.N)
}

// NewBuilder returns a builder for a graph on n nodes (ids 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{
		n:   n,
		adj: make([][]NodeID, n),
		set: make([]map[NodeID]bool, n),
	}
}

// AddEdge appends the undirected edge {u,v}. The edge becomes port
// len(adj[u]) at u and port len(adj[v]) at v, so insertion order defines
// the local ψ-ordering at both endpoints.
func (b *Builder) AddEdge(u, v NodeID) error {
	for _, x := range []NodeID{u, v} {
		if x < 0 || int(x) >= b.n {
			return &NodeRangeError{Node: x, N: b.n}
		}
	}
	if u == v {
		return fmt.Errorf("%w at node %d", ErrSelfLoop, u)
	}
	if b.set[u] != nil && b.set[u][v] {
		return fmt.Errorf("%w {%d,%d}", ErrDuplicateEdge, u, v)
	}
	if b.set[u] == nil {
		b.set[u] = make(map[NodeID]bool)
	}
	if b.set[v] == nil {
		b.set[v] = make(map[NodeID]bool)
	}
	b.set[u][v] = true
	b.set[v][u] = true
	b.adj[u] = append(b.adj[u], v)
	b.adj[v] = append(b.adj[v], u)
	return nil
}

// MustAddEdge is AddEdge for statically-known-good edges in generators
// and tests; it panics on error.
func (b *Builder) MustAddEdge(u, v NodeID) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u,v} has been added.
func (b *Builder) HasEdge(u, v NodeID) bool {
	if u < 0 || int(u) >= b.n {
		return false
	}
	return b.set[u] != nil && b.set[u][v]
}

// Build finalises the graph. It does not require connectivity; call
// BuildConnected when the protocols demand a connected network.
func (b *Builder) Build() *Graph {
	g := &Graph{
		adj:   make([][]NodeID, b.n),
		ports: make([]map[NodeID]int, b.n),
		deg:   make([]int, b.n),
	}
	for v := range b.adj {
		g.adj[v] = make([]NodeID, len(b.adj[v]))
		copy(g.adj[v], b.adj[v])
		g.ports[v] = make(map[NodeID]int, len(b.adj[v]))
		for i, q := range b.adj[v] {
			g.ports[v][q] = i
		}
		g.deg[v] = len(b.adj[v])
		g.edges += len(b.adj[v])
	}
	g.edges /= 2
	return g
}

// BuildConnected is Build plus a connectivity check.
func (b *Builder) BuildConnected() (*Graph, error) {
	g := b.Build()
	if !g.Connected() {
		return nil, ErrNotConnected
	}
	return g, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.edges }

// Degree returns the number of live edges incident on v (Δ_v in the
// paper). On a mutated graph this may be smaller than Ports(v), the
// size of v's port space.
func (g *Graph) Degree(v NodeID) int { return g.deg[v] }

// MaxDegree returns Δ, the maximum live degree over all nodes.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := range g.adj {
		if g.deg[v] > d {
			d = g.deg[v]
		}
	}
	return d
}

// Neighbors returns v's adjacency list in port order. The returned slice
// is shared with the graph and must not be modified; use NeighborsCopy
// for a private copy. On a mutated graph entries may be None (the holes
// removed edges leave behind); iteration must skip them.
func (g *Graph) Neighbors(v NodeID) []NodeID { return g.adj[v] }

// NeighborsCopy returns a private copy of v's adjacency list.
func (g *Graph) NeighborsCopy(v NodeID) []NodeID {
	out := make([]NodeID, len(g.adj[v]))
	copy(out, g.adj[v])
	return out
}

// Neighbor returns the neighbour of v on the given port, or None when
// the port is a hole left by a removed edge.
func (g *Graph) Neighbor(v NodeID, port int) NodeID { return g.adj[v][port] }

// PortOf returns the port number of q at v, i.e. the index of q in v's
// adjacency list, and whether the edge {v,q} exists.
func (g *Graph) PortOf(v, q NodeID) (int, bool) {
	p, ok := g.ports[v][q]
	return p, ok
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.ports[u][v]
	return ok
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V NodeID
}

// Edges returns every edge exactly once, sorted by (U,V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if v != None && NodeID(u) < v {
				out = append(out, Edge{U: NodeID(u), V: v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Connected reports whether the live subgraph is connected (vacuously
// true when no node is alive). Dead nodes are ignored.
func (g *Graph) Connected() bool {
	start := NodeID(-1)
	for v := 0; v < g.N(); v++ {
		if g.Alive(NodeID(v)) {
			start = NodeID(v)
			break
		}
	}
	if start < 0 {
		return true
	}
	dist, _ := BFSFrom(g, start)
	for v, d := range dist {
		if d < 0 && g.Alive(NodeID(v)) {
			return false
		}
	}
	return true
}

// Reorder returns a copy of g in which every node's adjacency list is
// permuted by perm[v], a permutation of 0..Ports(v)-1 mapping new port
// index to old port index — the *port space*, not the live degree: on a
// mutated graph the permutation covers the None holes removed edges
// left behind, and each hole travels to its new port so port-indexed
// protocol state stays bound to the right (absent) edge. Dead nodes
// keep their slot, their (empty) port space and their liveness epoch.
// The copy carries the original's topology version and per-node
// liveness epochs, so version-keyed caches treat it as the same
// mutation history. It is used by the ψ-ordering ablation (T8).
func (g *Graph) Reorder(perm [][]int) (*Graph, error) {
	if len(perm) != g.N() {
		return nil, fmt.Errorf("graph: reorder wants %d permutations, got %d", g.N(), len(perm))
	}
	ng := &Graph{
		adj:     make([][]NodeID, g.N()),
		ports:   make([]map[NodeID]int, g.N()),
		edges:   g.edges,
		deg:     make([]int, g.N()),
		dead:    g.dead,
		version: g.version,
	}
	if g.alive != nil {
		ng.alive = make([]bool, len(g.alive))
		copy(ng.alive, g.alive)
	}
	if g.liveEpoch != nil {
		ng.liveEpoch = make([]uint64, len(g.liveEpoch))
		copy(ng.liveEpoch, g.liveEpoch)
	}
	for v := range g.adj {
		if len(perm[v]) != len(g.adj[v]) {
			return nil, fmt.Errorf("graph: node %d permutation length %d != degree %d", v, len(perm[v]), len(g.adj[v]))
		}
		seen := make([]bool, len(perm[v]))
		ng.adj[v] = make([]NodeID, len(g.adj[v]))
		ng.ports[v] = make(map[NodeID]int, len(g.adj[v]))
		for newPort, oldPort := range perm[v] {
			if oldPort < 0 || oldPort >= len(g.adj[v]) || seen[oldPort] {
				return nil, fmt.Errorf("graph: node %d permutation is not a permutation", v)
			}
			seen[oldPort] = true
			q := g.adj[v][oldPort]
			ng.adj[v][newPort] = q
			if q != None {
				ng.ports[v][q] = newPort
				ng.deg[v]++
			}
		}
	}
	return ng, nil
}

// String returns a compact human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, Δ=%d)", g.N(), g.M(), g.MaxDegree())
}
