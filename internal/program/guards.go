package program

import (
	"slices"

	"netorient/internal/graph"
)

// actionStride is the per-node slot width of the enabled-action arena.
// Every protocol in this library exposes at most six simultaneously
// enabled actions per node; a node that exceeds the stride transparently
// falls back to a privately grown buffer (the three-index slice below
// caps capacity, so append reallocates instead of clobbering the next
// node's slot).
const actionStride = 8

// guards is the enabled-guard cache both engines schedule from: the
// paper's set of enabled guarded commands, kept per node. System and
// ParallelSystem embed it and add only their own selection machinery
// (the Fenwick index and witness; shards and waves).
//
// The invariant: while inited, after every Step and ApplyDelta,
// acts[v] equals what Protocol.Enabled(v) reports on the current
// configuration (empty for a dead v), enabled[v] ⇔ len(acts[v]) > 0,
// and count is the number of enabled nodes. It holds because guards
// read only locally-shared variables: any guard change is attributable
// to a fired move whose influence set covers the changed node, or to a
// topology delta whose ball does. Changing the configuration behind
// the engine's back (Restore, Randomize, CorruptNode) breaks it, which
// is why invalidate exists; the next bootstrap re-evaluates every
// guard once.
//
// Round bookkeeping rides on the same cache: pending[v] marks the
// processors that were enabled when the current round began and have
// neither moved nor been seen disabled since.
type guards struct {
	proto Protocol
	inf   Influencer    // cached type assertion; nil ⇒ default 1-hop locality
	topo  TopologyAware // cached type assertion; nil ⇒ default delta ball
	g     *graph.Graph

	inited  bool
	arena   []ActionID   // backing storage for acts, one stride per node
	acts    [][]ActionID // per-node cached enabled-action lists
	enabled []bool       // enabled[v] ⇔ len(acts[v]) > 0
	count   int          // number of enabled nodes
	seenN   int          // the id-space size the last ApplyDelta saw

	// Dirty stamps: stamp[v] == epoch while v is queued for a refresh.
	// Epochs start at 1, so a zero stamp never matches.
	stamp []int64
	epoch int64

	pending      []bool
	pendingCount int
	roundOpen    bool

	// deltaBall is the influence ball the last ApplyDelta repaired
	// besides the delta's Touched set (see System.DeltaBall).
	deltaBall []graph.NodeID
}

func newGuards(proto Protocol) guards {
	inf, _ := proto.(Influencer)
	topo, _ := proto.(TopologyAware)
	return guards{proto: proto, inf: inf, topo: topo, g: proto.Graph(), seenN: proto.Graph().N()}
}

// grow extends the per-node slots from len(acts) to n in place: the
// arena doubles its capacity when exhausted (rebasing every cached
// list, so steady-state refreshes stay allocation-free) and the
// per-node arrays append zero slots — amortised O(1) per appended node.
// New slots start disabled and not pending.
func (c *guards) grow(n int) {
	old := len(c.acts)
	if n <= old {
		return
	}
	if need := n * actionStride; need > cap(c.arena) {
		arena := make([]ActionID, max(2*cap(c.arena), need))
		for v := 0; v < old; v++ {
			c.acts[v] = append(arena[v*actionStride:v*actionStride:(v+1)*actionStride], c.acts[v]...)
		}
		c.arena = arena
	}
	c.acts = slices.Grow(c.acts, n-old)
	for v := old; v < n; v++ {
		c.acts = append(c.acts, c.arena[v*actionStride:v*actionStride:(v+1)*actionStride])
	}
	c.enabled = append(c.enabled, make([]bool, n-old)...)
	c.stamp = append(c.stamp, make([]int64, n-old)...)
	c.pending = append(c.pending, make([]bool, n-old)...)
}

// bootstrap sizes the slots to the id space and fills them with one
// full guard scan, the cache's only Θ(n) pass. No node is pending here
// (invalidate cleared the round), so the scan discharges nothing.
func (c *guards) bootstrap() {
	n := c.g.N()
	c.grow(n)
	clear(c.enabled)
	c.count = 0
	for v := 0; v < n; v++ {
		dCount, _ := c.refresh(graph.NodeID(v))
		c.count += dCount
	}
	c.inited = true
}

// refresh re-evaluates v's guards into its slot, flips its enabled bit
// and discharges it from the round's pending set when it is now
// disabled. It returns the changes to count and pendingCount instead
// of applying them, so concurrent workers can each keep their own
// tallies. Dead processors execute nothing; the cache owns this rule
// so protocols keep their guards liveness-oblivious.
func (c *guards) refresh(v graph.NodeID) (dCount, dPending int) {
	if c.g.Alive(v) {
		c.acts[v] = c.proto.Enabled(v, c.acts[v][:0])
	} else {
		c.acts[v] = c.acts[v][:0]
	}
	now := len(c.acts[v]) > 0
	if now != c.enabled[v] {
		c.enabled[v] = now
		dCount = 1
		if !now {
			dCount = -1
		}
	}
	if !now {
		dPending = c.discharge(v)
	}
	return dCount, dPending
}

// discharge removes v from the round's pending set and returns the
// change to pendingCount (−1 if v was pending, else 0).
func (c *guards) discharge(v graph.NodeID) int {
	if !c.pending[v] {
		return 0
	}
	c.pending[v] = false
	return -1
}

// queue appends u to dirty unless it is already queued this epoch.
func (c *guards) queue(u graph.NodeID, dirty []graph.NodeID) []graph.NodeID {
	if c.stamp[u] != c.epoch {
		c.stamp[u] = c.epoch
		dirty = append(dirty, u)
	}
	return dirty
}

// influence appends every node whose guard the fired move (v, a) may
// have changed: v itself, then the protocol's declared Influence set,
// or v's closed 1-hop neighbourhood by default.
func (c *guards) influence(v graph.NodeID, a ActionID, buf []graph.NodeID) []graph.NodeID {
	if c.inf == nil {
		return InfluenceClosedNeighborhood(c.g, v, buf)
	}
	return c.inf.Influence(v, a, append(buf, v))
}

// applyDelta is the head both engines' ApplyDelta share. It gives the
// protocol its TopologyChanged hook and records the returned ball in
// deltaBall (a protocol without the hook gets the default ball: the
// closed 1-hop neighbourhoods of the touched set), grows the slots when
// the delta grew the id space, and — while inited — opens a fresh
// epoch and queues the touched set plus the ball onto dirty. It
// reports whether the id space grew. Uninited, the slots grow at the
// next bootstrap instead, which sizes them to the graph.
func (c *guards) applyDelta(d graph.Delta, dirty []graph.NodeID) ([]graph.NodeID, bool) {
	if c.topo != nil {
		c.deltaBall = c.topo.TopologyChanged(d, c.deltaBall[:0])
	} else {
		c.deltaBall = c.deltaBall[:0]
		for _, u := range d.Touched {
			c.deltaBall = InfluenceClosedNeighborhood(c.g, u, c.deltaBall)
		}
	}
	grew := c.g.N() != c.seenN
	c.seenN = c.g.N()
	if !c.inited {
		return dirty, grew
	}
	c.grow(c.seenN)
	c.epoch++
	for _, u := range d.Touched {
		dirty = c.queue(u, dirty)
	}
	for _, u := range c.deltaBall {
		dirty = c.queue(u, dirty)
	}
	return dirty, grew
}

// invalidate discards the cache and the round state: the next
// bootstrap re-evaluates every guard, and round tracking restarts from
// the configuration it sees.
func (c *guards) invalidate() {
	c.inited = false
	c.roundOpen = false
	if c.pendingCount > 0 {
		clear(c.pending)
		c.pendingCount = 0
	}
}

// enabledNodes appends the ids of all enabled processors in ascending
// order. The cache must be inited.
func (c *guards) enabledNodes(buf []graph.NodeID) []graph.NodeID {
	for v, on := range c.enabled {
		if on {
			buf = append(buf, graph.NodeID(v))
		}
	}
	return buf
}
