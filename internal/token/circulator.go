package token

import (
	"fmt"
	"math/rand"

	"netorient/internal/graph"
	"netorient/internal/program"
)

// Circulator is a self-stabilizing deterministic depth-first token
// circulation protocol on an arbitrary rooted network.
//
// Per-node state:
//
//	seq  — round counter; a node is "visited in round R" iff seq = R.
//	       Counters are monotone per node; only the root mints new
//	       (strictly larger) values, every other move copies them.
//	ptr  — port of the child currently being explored, -1 if none.
//	par  — ancestor pointer A_p (None at the root / when unset).
//	lev  — DFS depth of the node in the current round, capped at n;
//	       level consistency (lev_child = lev_parent+1) makes stale
//	       pointer cycles locally detectable.
//	done — the node's subtree is completely explored this round.
//
// In a legitimate round R = seq_root, the visited nodes form the DFS
// prefix tree of the traversal, exactly one of the following holds —
// the head of the pointer chain can advance, an in-flight arrow can be
// consumed by a Forward move, or (between rounds) the root can start —
// and every node is visited exactly once per round in port order.
//
// Stabilization: seq values never decrease; a Forward with round value
// s strictly shrinks {v : seq_v < s}, so each stale value supports
// finitely many moves; CatchUp spreads a decreasing gradient from any
// region whose counters exceed the root's, letting the root overtake
// the largest stale value within a diameter's worth of rounds; Break
// retracts pointers whose level equation fails, which destroys every
// corrupt pointer cycle (levels cannot increase by one around a
// cycle). Once the root mints a value larger than every stale counter,
// that round traverses the whole network and erases all corruption.
// Convergence and closure are additionally machine-verified
// exhaustively on small graphs (package check) and statistically on
// random graphs.
type Circulator struct {
	g     *graph.Graph
	roots program.Roots
	ev    Events

	seq  []uint64
	ptr  []int
	par  []graph.NodeID
	lev  []int
	done []bool

	// Legitimate's scratch, reused so that it allocates nothing (it
	// runs once per step in RunUntilLegitimate loops without a
	// witness): chain is the on-chain set, live the live effective
	// roots and compRoot each component label's root (see anchor),
	// which the witness reads too.
	chain    graph.Marks
	live     []graph.NodeID
	compRoot []graph.NodeID

	// wit is the incremental legitimacy witness (see witness.go);
	// lazily allocated when the runner arms it.
	wit *circWitness
}

// Action identifiers of Circulator.
const (
	// ActStart: the root begins a new round with a fresh counter.
	ActStart program.ActionID = iota
	// ActForward: a node receives the token from a pointing neighbour
	// with a larger counter (the paper's Forward(p)).
	ActForward
	// ActAdvance: a token holder extends the traversal to its next
	// unvisited neighbour in port order, or declares its subtree done
	// (the paper's Backtrack(p) is the advance triggered by a
	// finished child).
	ActAdvance
	// ActCatchUp: a node two or more rounds behind its neighbourhood
	// raises its counter to max-1, propagating large stale counters
	// toward the root without marking itself visited.
	ActCatchUp
	// ActBreak: a node retracts a pointer to a same-round neighbour
	// whose level is inconsistent — a configuration unreachable in
	// correct operation that witnesses initial corruption.
	ActBreak

	numActions
)

// Compile-time interface compliance.
var (
	_ program.Protocol      = (*Circulator)(nil)
	_ program.Legitimacy    = (*Circulator)(nil)
	_ program.Snapshotter   = (*Circulator)(nil)
	_ program.Randomizer    = (*Circulator)(nil)
	_ program.SpaceMeter    = (*Circulator)(nil)
	_ program.ActionNamer   = (*Circulator)(nil)
	_ program.Influencer    = (*Circulator)(nil)
	_ program.TopologyAware = (*Circulator)(nil)
	_ program.Rootable      = (*Circulator)(nil)
	_ Substrate             = (*Circulator)(nil)
)

// NewCirculator returns a Circulator on g rooted at root, initialised
// to the clean between-rounds configuration (all counters zero, all
// done). Use Randomize or Restore for adversarial starts.
func NewCirculator(g *graph.Graph, root graph.NodeID) (*Circulator, error) {
	if root < 0 || int(root) >= g.N() {
		return nil, fmt.Errorf("token: root %d out of range for %s", root, g)
	}
	n := g.N()
	c := &Circulator{
		g:     g,
		roots: program.NewRoots(g, root),
		seq:   make([]uint64, n),
		ptr:   make([]int, n),
		par:   make([]graph.NodeID, n),
		lev:   make([]int, n),
		done:  make([]bool, n),
	}
	for v := 0; v < n; v++ {
		c.ptr[v] = -1
		c.par[v] = graph.None
		c.done[v] = true
	}
	return c, nil
}

// Name implements program.Protocol.
func (c *Circulator) Name() string { return "dftc" }

// Graph implements program.Protocol.
func (c *Circulator) Graph() *graph.Graph { return c.g }

// Root implements Substrate.
func (c *Circulator) Root() graph.NodeID { return c.roots.Root() }

// BindRootAuthority implements program.Rootable: every root comparison
// in the guards, statements and legitimacy predicates goes through the
// root set, so binding an authority re-anchors the circulation at
// whatever nodes the authority designates. A nil authority (the
// default) anchors it at the fixed root alone.
func (c *Circulator) BindRootAuthority(a program.RootAuthority) {
	c.roots.Bind(a)
	if c.wit != nil {
		c.wit.valid = false
	}
}

// Parent implements Substrate.
func (c *Circulator) Parent(v graph.NodeID) graph.NodeID {
	if c.roots.IsRoot(v) {
		return graph.None
	}
	return c.par[v]
}

// SetObserver implements Substrate.
func (c *Circulator) SetObserver(ev Events) { c.ev = ev }

// Seq returns v's round counter (exported for tests and tracing).
func (c *Circulator) Seq(v graph.NodeID) uint64 { return c.seq[v] }

// Done reports whether v has finished its subtree this round.
func (c *Circulator) Done(v graph.NodeID) bool { return c.done[v] }

// Round returns the root's current round counter.
func (c *Circulator) Round() uint64 { return c.seq[c.roots.Root()] }

// maxNbrSeq returns the largest counter among v's neighbours.
func (c *Circulator) maxNbrSeq(v graph.NodeID) uint64 {
	var m uint64
	for _, q := range c.g.Neighbors(v) {
		if q != graph.None && c.seq[q] > m {
			m = c.seq[q]
		}
	}
	return m
}

// ptrTarget returns the node v's pointer designates, or None. A
// pointer aimed outside the port space or at a hole (a port whose
// edge a topology delta removed) reads as retracted; TopologyChanged
// clamps such pointers, and the guards below tolerate them in between.
func (c *Circulator) ptrTarget(v graph.NodeID) graph.NodeID {
	if c.ptr[v] < 0 || c.ptr[v] >= c.g.Ports(v) {
		return graph.None
	}
	return c.g.Neighbor(v, c.ptr[v])
}

// arrowSource returns the neighbour v should accept the token from:
// among neighbours q with ptr_q → v, ¬done_q and seq_q > seq_v, the
// one with the largest counter (ties broken by v's port order), or
// None if no such neighbour exists.
func (c *Circulator) arrowSource(v graph.NodeID) graph.NodeID {
	best := graph.None
	var bestSeq uint64
	for _, q := range c.g.Neighbors(v) {
		if q == graph.None || c.done[q] || c.seq[q] <= c.seq[v] {
			continue
		}
		if c.ptrTarget(q) != v {
			continue
		}
		if best == graph.None || c.seq[q] > bestSeq {
			best, bestSeq = q, c.seq[q]
		}
	}
	return best
}

// finishedChild returns the child v's pointer designates if that child
// has completed its subtree this round, else None.
func (c *Circulator) finishedChild(v graph.NodeID) graph.NodeID {
	q := c.ptrTarget(v)
	if q != graph.None && c.seq[q] == c.seq[v] && c.done[q] {
		return q
	}
	return graph.None
}

// advanceReady reports whether the advance guard holds at v: the node
// holds the token and either has not pointed anywhere yet, or its
// pointed-at child has finished this round, or the child has deserted
// to a newer round (a corruption-only situation — in correct operation
// a child's counter never exceeds its parent's — that would otherwise
// deadlock the chain).
func (c *Circulator) advanceReady(v graph.NodeID) bool {
	if c.done[v] {
		return false
	}
	if c.ptr[v] < 0 {
		return true
	}
	q := c.ptrTarget(v)
	if q == graph.None {
		// Pointer at a hole: the designated edge is gone, which can
		// only result from a topology fault. Advancing rewrites the
		// pointer, so treat it like a retracted one.
		return true
	}
	return (c.seq[q] == c.seq[v] && c.done[q]) || c.seq[q] > c.seq[v]
}

// breakReady reports whether v points at a same-round, unfinished
// neighbour with an inconsistent level.
func (c *Circulator) breakReady(v graph.NodeID) bool {
	if c.done[v] || c.ptr[v] < 0 {
		return false
	}
	q := c.ptrTarget(v)
	if q == graph.None || c.seq[q] != c.seq[v] || c.done[q] {
		return false
	}
	return c.lev[q] != c.levPlusOne(v)
}

// levPlusOne returns v's level plus one, capped at n.
func (c *Circulator) levPlusOne(v graph.NodeID) int {
	if c.lev[v] >= c.g.N() {
		return c.g.N()
	}
	return c.lev[v] + 1
}

// catchUpReady reports whether the CatchUp guard holds at v.
func (c *Circulator) catchUpReady(v graph.NodeID) bool {
	m := c.maxNbrSeq(v)
	if c.roots.IsRoot(v) {
		return m > c.seq[v]
	}
	return m >= 2 && m-1 > c.seq[v] // gap of two or more rounds
}

// Enabled implements program.Protocol.
func (c *Circulator) Enabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	if c.roots.IsRoot(v) {
		if c.done[v] {
			buf = append(buf, ActStart)
		}
	} else if c.arrowSource(v) != graph.None {
		buf = append(buf, ActForward)
	}
	if c.advanceReady(v) {
		buf = append(buf, ActAdvance)
	}
	if c.catchUpReady(v) {
		buf = append(buf, ActCatchUp)
	}
	if c.breakReady(v) {
		buf = append(buf, ActBreak)
	}
	return buf
}

// Execute implements program.Protocol.
func (c *Circulator) Execute(v graph.NodeID, a program.ActionID) bool {
	switch a {
	case ActStart:
		if !c.roots.IsRoot(v) || !c.done[v] {
			return false
		}
		next := c.seq[v]
		if m := c.maxNbrSeq(v); m > next {
			next = m
		}
		c.seq[v] = next + 1
		c.done[v] = false
		c.ptr[v] = -1
		c.lev[v] = 0
		c.par[v] = graph.None // the root has no ancestor; clear stale junk
		if c.ev != nil {
			c.ev.OnRootStart(v)
		}
		return true

	case ActForward:
		q := c.arrowSource(v)
		if c.roots.IsRoot(v) || q == graph.None {
			return false
		}
		c.par[v] = q
		c.seq[v] = c.seq[q]
		c.lev[v] = c.levPlusOne(q)
		c.done[v] = false
		c.ptr[v] = -1
		if c.ev != nil {
			c.ev.OnForward(v, q)
		}
		return true

	case ActAdvance:
		if !c.advanceReady(v) {
			return false
		}
		if child := c.finishedChild(v); child != graph.None {
			if c.ev != nil {
				c.ev.OnBacktrack(v, child)
			}
		}
		for port, q := range c.g.Neighbors(v) {
			if q != graph.None && c.seq[q] < c.seq[v] {
				c.ptr[v] = port
				return true
			}
		}
		c.ptr[v] = -1
		c.done[v] = true
		return true

	case ActCatchUp:
		if !c.catchUpReady(v) {
			return false
		}
		m := c.maxNbrSeq(v)
		if c.roots.IsRoot(v) {
			c.seq[v] = m
		} else {
			c.seq[v] = m - 1
		}
		c.done[v] = true
		c.ptr[v] = -1
		return true

	case ActBreak:
		if !c.breakReady(v) {
			return false
		}
		c.ptr[v] = -1
		return true
	}
	return false
}

// Influence implements program.Influencer, documenting the locality
// audit: every statement (Start, Forward, Advance, CatchUp, Break)
// writes only v's own variables (seq, ptr, par, lev, done), and every
// guard reads only the evaluating node's variables and its
// neighbours' (arrowSource, maxNbrSeq, finishedChild and the level
// equation all iterate Neighbors once) — so a move at v can change
// guards in v's closed 1-hop neighbourhood only, the scheduler's
// default, declared here explicitly. HasToken, which the DFTNO layer
// folds into its guards, reads the same 1-hop ball.
func (c *Circulator) Influence(v graph.NodeID, _ program.ActionID, buf []graph.NodeID) []graph.NodeID {
	return program.InfluenceClosedNeighborhood(c.g, v, buf)
}

// TopologyChanged implements program.TopologyAware. Per-node state has
// no port-indexed arrays (ptr is a single port), so rebinding is pure
// clamping: pointers into removed ports retract, parents that are no
// longer neighbours clear, levels re-cap. The resulting configuration
// is arbitrary-but-in-bounds, which self-stabilization absorbs. The
// influence ball is the closed 1-hop neighbourhood of the touched set:
// guards read one hop (the same audit as Influence), and the clamps
// only write variables of touched nodes.
func (c *Circulator) TopologyChanged(d graph.Delta, buf []graph.NodeID) []graph.NodeID {
	if n := c.g.N(); len(c.seq) < n {
		c.seq = append(c.seq, make([]uint64, n-len(c.seq))...)
		for len(c.ptr) < n {
			c.ptr = append(c.ptr, -1)
			c.par = append(c.par, graph.None)
			c.lev = append(c.lev, 0)
			c.done = append(c.done, true)
		}
		if c.wit != nil {
			c.wit.valid = false // node array too small; lazily re-arm
		}
	}
	for _, v := range d.Touched {
		c.clamp(v)
	}
	for _, v := range d.Touched {
		buf = program.InfluenceClosedNeighborhood(c.g, v, buf)
	}
	return buf
}

// clamp pulls v's pointer, parent and level back into their domains
// over the current adjacency: a pointer to a missing port becomes -1,
// a parent that is no longer a neighbour becomes None, and the level
// is confined to 0..N. Restore applies it to decoded values and
// TopologyChanged to the touched nodes.
func (c *Circulator) clamp(v graph.NodeID) {
	if c.ptr[v] < -1 || c.ptr[v] >= c.g.Ports(v) || (c.ptr[v] >= 0 && c.g.Neighbor(v, c.ptr[v]) == graph.None) {
		c.ptr[v] = -1
	}
	if c.par[v] != graph.None && !c.g.HasEdge(v, c.par[v]) {
		c.par[v] = graph.None
	}
	c.lev[v] = min(max(c.lev[v], 0), c.g.N())
}

// Finished implements Substrate: done_v.
func (c *Circulator) Finished(v graph.NodeID) bool { return c.done[v] }

// Pointing implements Substrate: the neighbour v's pointer designates.
func (c *Circulator) Pointing(v graph.NodeID) graph.NodeID { return c.ptrTarget(v) }

// SameRound implements Substrate: seq_u = seq_v.
func (c *Circulator) SameRound(u, v graph.NodeID) bool { return c.seq[u] == c.seq[v] }

// Behind implements Substrate: seq_u < seq_v.
func (c *Circulator) Behind(u, v graph.NodeID) bool { return c.seq[u] < c.seq[v] }

// HasToken implements Substrate: v holds the token iff a token-moving
// action (Start, Forward or Advance) is enabled at v.
func (c *Circulator) HasToken(v graph.NodeID) bool {
	if c.roots.IsRoot(v) {
		if c.done[v] {
			return true
		}
	} else if c.arrowSource(v) != graph.None {
		return true
	}
	return c.advanceReady(v)
}

// ActionName implements program.ActionNamer.
func (c *Circulator) ActionName(a program.ActionID) string {
	switch a {
	case ActStart:
		return "Start"
	case ActForward:
		return "Forward"
	case ActAdvance:
		return "Advance"
	case ActCatchUp:
		return "CatchUp"
	case ActBreak:
		return "Break"
	}
	return "?"
}

// orphanSilent reports whether no action is enabled at v — the
// legitimacy condition for nodes in a component that lost the root.
// Such components provably quiesce (Σseq is monotone and bounded by
// the component maximum, and between counter changes Advance and
// Break each fire at most once per node), but the terminal
// configuration is whatever junk the partition froze — so orphan
// legitimacy is silence, not a shape predicate. It reads the same
// 1-hop ball as Enabled, through the guard helpers directly, keeping
// instrumented Enabled-call counts unchanged on connected graphs.
func (c *Circulator) orphanSilent(v graph.NodeID) bool {
	if c.roots.IsRoot(v) {
		if c.done[v] {
			return false // Start is enabled
		}
	} else if c.arrowSource(v) != graph.None {
		return false
	}
	return !c.advanceReady(v) && !c.catchUpReady(v) && !c.breakReady(v)
}

// sharedRoot marks, in compRoot, a component owning several roots.
const sharedRoot graph.NodeID = graph.None - 1

// anchor refreshes the root tables Legitimate and the witness read:
// live, the live effective roots in ascending id order, and compRoot,
// each component label's root (None for a component owning none,
// sharedRoot for one owning several). It returns the number of
// components owning several roots — a transient right after a heal
// merges two acting roots.
func (c *Circulator) anchor() (shared int) {
	for i := range c.compRoot {
		c.compRoot[i] = graph.None
	}
	c.live = c.roots.AppendLive(c.live[:0])
	for _, r := range c.live {
		comp := c.g.ComponentOf(r)
		for len(c.compRoot) <= comp {
			c.compRoot = append(c.compRoot, graph.None)
		}
		switch c.compRoot[comp] {
		case graph.None:
			c.compRoot[comp] = r
		case sharedRoot:
		default:
			c.compRoot[comp] = sharedRoot
			shared++
		}
	}
	return shared
}

// rootOf returns the one root of component comp as of the last anchor,
// or None when it owns none or several.
func (c *Circulator) rootOf(comp int) graph.NodeID {
	if comp < len(c.compRoot) && c.compRoot[comp] != sharedRoot {
		return c.compRoot[comp]
	}
	return graph.None
}

// Legitimate implements program.Legitimacy, decided per component
// against the root set (the fixed root, or the bound authority's
// effective roots). A component owning one root r must be in a
// configuration reachable in ideal operation from r — either the
// between-rounds configuration (everyone done with r's counter) or a
// mid-round configuration whose visited set is a DFS prefix: a pointer
// chain of unfinished nodes from r with consistent levels and parents,
// every other visited node finished, every unvisited node one round
// behind and finished, and at most one in-flight arrow at the chain's
// head. Every node in a component owning no root must be silent (see
// orphanSilent); a dead fixed root makes every live node an orphan. A
// component owning several roots is illegitimate outright. Closure
// holds because the guards read one hop: silence in an orphan
// component is stable until a topology delta reconnects it, and a
// rooted component cannot enable an orphan.
func (c *Circulator) Legitimate() bool {
	g := c.g
	if c.anchor() > 0 {
		return false
	}
	c.chain.Reset(g.N())
	for _, r := range c.live {
		if !c.done[r] && !c.walkChain(r) {
			return false
		}
	}
	for v := 0; v < g.N(); v++ {
		id := graph.NodeID(v)
		if !g.Alive(id) || c.chain.Has(id) {
			continue
		}
		r := c.rootOf(g.ComponentOf(id))
		if r == graph.None {
			if !c.orphanSilent(id) {
				return false
			}
			continue
		}
		rnd := c.seq[r]
		if c.done[r] {
			// Between rounds: everyone finished at the root's counter.
			if c.seq[v] != rnd || !c.done[v] || c.ptr[v] != -1 {
				return false
			}
			continue
		}
		switch {
		case c.seq[v] == rnd:
			// Visited off the chain: finished, with a valid parent.
			if !c.done[v] || c.ptr[v] != -1 {
				return false
			}
			p := c.par[v]
			if c.roots.IsRoot(id) || p == graph.None || !g.HasEdge(id, p) || c.seq[p] != rnd || c.lev[v] != c.lev[p]+1 {
				return false
			}
		case c.seq[v]+1 == rnd:
			// Unvisited: one round behind and finished.
			if !c.done[v] || c.ptr[v] != -1 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// walkChain adds the pointer chain from the mid-round root r to the
// on-chain set and reports whether it is well formed: unfinished nodes
// of r's round, each the parent one level up of the next, ending at a
// head that is freshly visited, awaits an advance past a finished
// child, or has an in-flight arrow to an unvisited node. Chains stay
// inside their component (pointers designate neighbours), so the walks
// of distinct roots never meet.
func (c *Circulator) walkChain(r graph.NodeID) bool {
	if c.lev[r] != 0 {
		return false
	}
	rnd := c.seq[r]
	for v := r; ; {
		if c.done[v] || c.seq[v] != rnd || !c.chain.Add(v) {
			return false
		}
		q := c.ptrTarget(v)
		if q == graph.None {
			return true // head, freshly visited
		}
		switch {
		case c.seq[q] == rnd && !c.done[q]:
			// Chain continues; check the tree equations.
			if c.par[q] != v || c.lev[q] != c.lev[v]+1 {
				return false
			}
			v = q
		case c.done[q] && (c.seq[q] == rnd || c.seq[q]+1 == rnd):
			// Head awaiting an advance past a finished child, or with
			// an in-flight arrow to an unvisited node.
			return true
		default:
			return false
		}
	}
}

// Snapshot implements program.Snapshotter. Snapshots are canonical
// modulo a global counter shift: all guards and statements depend only
// on counter differences, so subtracting the minimum counter yields an
// exact bisimulation quotient — this keeps the model checker's state
// space finite.
func (c *Circulator) Snapshot() []byte {
	n := c.g.N()
	min := c.seq[0]
	for _, s := range c.seq[1:] {
		if s < min {
			min = s
		}
	}
	w := program.NewSnapshotWriter(6 * n)
	for v := 0; v < n; v++ {
		w.Uint(c.seq[v] - min)
		w.Int(c.ptr[v])
		w.Int(int(c.par[v]))
		w.Int(c.lev[v])
		w.Bool(c.done[v])
	}
	return w.Bytes()
}

// Restore implements program.Snapshotter.
func (c *Circulator) Restore(data []byte) error {
	r := program.NewSnapshotReader(data)
	for v := 0; v < c.g.N(); v++ {
		c.seq[v] = r.Uint()
		c.ptr[v] = r.Int()
		c.par[v] = graph.NodeID(r.Int())
		c.lev[v] = r.Int()
		c.done[v] = r.Bool()
		c.clamp(graph.NodeID(v))
	}
	return r.Err()
}

// CorruptNode implements program.NodeCorruptor: v's variables take
// arbitrary values of their domains.
func (c *Circulator) CorruptNode(v graph.NodeID, rng *rand.Rand) {
	n := c.g.N()
	c.seq[v] = uint64(rng.Intn(2*n + 1))
	// Port-index draws range over the port space (identical to the
	// pre-churn degree on hole-free graphs, keeping seeded streams
	// stable); draws landing on a hole clamp without extra draws.
	c.ptr[v] = rng.Intn(c.g.Ports(v)+1) - 1
	if c.ptr[v] >= 0 && c.g.Neighbor(v, c.ptr[v]) == graph.None {
		c.ptr[v] = -1
	}
	c.lev[v] = rng.Intn(n + 1)
	c.done[v] = rng.Intn(2) == 0
	if rng.Intn(2) == 0 || c.g.Ports(v) == 0 {
		c.par[v] = graph.None
	} else {
		c.par[v] = c.g.Neighbor(v, rng.Intn(c.g.Ports(v)))
	}
}

// Randomize implements program.Randomizer: every variable takes an
// arbitrary value of its domain.
func (c *Circulator) Randomize(rng *rand.Rand) {
	for v := 0; v < c.g.N(); v++ {
		c.CorruptNode(graph.NodeID(v), rng)
	}
}

// StateBits implements program.SpaceMeter. The implementation carries
// a 64-bit counter where the original substrate uses O(log N) bits;
// ptr and par cost ⌈log₂(Δ_v+1)⌉ and the level ⌈log₂(N+1)⌉.
func (c *Circulator) StateBits(v graph.NodeID) int {
	d := c.g.Degree(v)
	return 64 + // seq
		program.Log2Ceil(d+2) + // ptr (port or -1)
		program.Log2Ceil(d+2) + // par (neighbour or none)
		program.Log2Ceil(c.g.N()+1) + // lev
		1 // done
}
