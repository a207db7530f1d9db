package program

import (
	"math/rand"

	"netorient/internal/graph"
)

// LayerOwn is what one layer of a composed stack contributes beside
// its inner stack: its own guards and statements (action ids from the
// Layer's first own id up), its per-node legitimacy clause, its
// snapshot fields, its corruption draws, its space and its topology
// repair. A Layer composes these with the inner stack, so no layer
// restates the composition.
type LayerOwn interface {
	// OwnEnabled appends the layer's enabled own actions at v.
	OwnEnabled(v graph.NodeID, buf []ActionID) []ActionID
	// OwnExecute runs own action a at v, re-checking its guard.
	OwnExecute(v graph.NodeID, a ActionID) bool
	// OwnActionName names own action a, or returns "" for an id the
	// layer does not define.
	OwnActionName(a ActionID) string
	// OwnFresh re-derives whatever the own clauses read from the root
	// set, invalidating the witness counter when it moved. It runs
	// before every legitimacy decision.
	OwnFresh()
	// OwnViolates is the layer's per-node legitimacy clause: it reports
	// whether v violates it. It reads no further than the layer's
	// declared influence sets.
	OwnViolates(v graph.NodeID) bool
	// OwnSnapshot writes the layer's own fields and returns the
	// writer; OwnRestore reads them back in the same order and returns
	// the reader. Both pass the codec by value, so a snapshot or
	// restore allocates nothing beyond its bytes.
	OwnSnapshot(w SnapshotWriter) SnapshotWriter
	OwnRestore(r SnapshotReader) SnapshotReader
	// OwnCorrupt draws v's own variables from their domains.
	OwnCorrupt(v graph.NodeID, rng *rand.Rand)
	// OwnStateBits is the layer's own footprint at v, in bits.
	OwnStateBits(v graph.NodeID) int
	// OwnGrow covers the delta's grown id and port spaces with the
	// layer's arrays, before the inner stack's topology hook runs (the
	// inner hook may query the layer at the new ids), and reports
	// whether the id space grew.
	OwnGrow(d graph.Delta) bool
	// OwnRepair runs after the inner stack's topology hook: it
	// refreshes the layer's derived facts and appends its own
	// influence ball to buf, which holds the inner stack's ball.
	OwnRepair(d graph.Delta, grew bool, buf []graph.NodeID) []graph.NodeID
}

// Layer is the one composition rule of a layered stack: DFTNO over
// its token circulation, STNO over its spanning tree, and the failover
// wrapper over any rooted stack each embed one. It holds the inner
// stack, the inner stack's optional capabilities (resolved once), the
// split between inner and own action ids, and the own layer's
// violation counter, and it implements the composed protocol from
// them:
//
//   - Enabled lists the inner actions first, then the own ones;
//     Execute and ActionName dispatch on the id split;
//   - Legitimate and WitnessLegitimate run the own freshness hook,
//     then the own clauses, then the inner verdict; WitnessReset and
//     WitnessRefresh refresh the inner witness, then the own counter;
//   - Snapshot writes the inner snapshot as one SnapshotWriter.Layer
//     field, then the own fields;
//   - CorruptNode draws the inner variables, then the own ones, and
//     Randomize corrupts node by node;
//   - StateBits adds the own footprint to the inner one;
//   - TopologyChanged grows the own arrays, runs the inner hook, then
//     the own repair, so the ball lists the inner ball first.
//
// An inner stack without a capability is skipped: an empty snapshot
// layer, no inner draws, no inner space, no inner topology hook, and
// its Legitimate() in place of a witness verdict.
type Layer struct {
	g     *graph.Graph
	name  string
	inner interface {
		Protocol
		Legitimacy
	}
	own   LayerOwn
	first ActionID // own action ids are first and up

	wit     Witness
	snap    Snapshotter
	corrupt NodeCorruptor
	space   SpaceMeter
	topo    TopologyAware
	inf     Influencer

	counter ViolationCounter
}

// NewLayer composes own over inner on g. name prefixes the inner
// stack's name; first is the smallest own action id, above every id
// the inner stack uses.
func NewLayer(g *graph.Graph, name string, inner interface {
	Protocol
	Legitimacy
}, first ActionID, own LayerOwn) Layer {
	l := Layer{g: g, name: name, inner: inner, own: own, first: first}
	l.wit, _ = inner.(Witness)
	l.snap, _ = inner.(Snapshotter)
	l.corrupt, _ = inner.(NodeCorruptor)
	l.space, _ = inner.(SpaceMeter)
	l.topo, _ = inner.(TopologyAware)
	l.inf, _ = inner.(Influencer)
	return l
}

// Name implements Protocol.
func (l *Layer) Name() string { return l.name + "/" + l.inner.Name() }

// Graph implements Protocol.
func (l *Layer) Graph() *graph.Graph { return l.g }

// Enabled implements Protocol: the inner actions, then the own ones.
func (l *Layer) Enabled(v graph.NodeID, buf []ActionID) []ActionID {
	return l.own.OwnEnabled(v, l.inner.Enabled(v, buf))
}

// Execute implements Protocol.
func (l *Layer) Execute(v graph.NodeID, a ActionID) bool {
	if a >= l.first {
		return l.own.OwnExecute(v, a)
	}
	return l.inner.Execute(v, a)
}

// ActionName implements ActionNamer.
func (l *Layer) ActionName(a ActionID) string {
	if a >= l.first {
		if name := l.own.OwnActionName(a); name != "" {
			return name
		}
	}
	return ActionName(l.inner, a)
}

// InnerInfluence is the inner stack's influence set for its action a
// at v: its Influencer declaration, or the closed neighbourhood.
func (l *Layer) InnerInfluence(v graph.NodeID, a ActionID, buf []graph.NodeID) []graph.NodeID {
	if l.inf != nil {
		return l.inf.Influence(v, a, buf)
	}
	return InfluenceClosedNeighborhood(l.g, v, buf)
}

// Legitimate implements Legitimacy: the own clause holds at every
// node and the inner stack is legitimate.
func (l *Layer) Legitimate() bool {
	l.own.OwnFresh()
	for v := range graph.NodeID(l.g.N()) {
		if l.own.OwnViolates(v) {
			return false
		}
	}
	return l.inner.Legitimate()
}

// InvalidateWitness marks the own violation counter stale; the next
// WitnessLegitimate re-arms it. A layer calls it when a derived fact
// its clauses read changed without any node moving.
func (l *Layer) InvalidateWitness() { l.counter.Invalidate() }

// WitnessReset implements Witness.
func (l *Layer) WitnessReset() {
	if l.wit != nil {
		l.wit.WitnessReset()
	}
	l.counter.Reset(l.g.N(), l.own.OwnViolates)
}

// WitnessRefresh implements Witness. While the own counter is stale
// the inner refresh is skipped too: the re-arming reset covers both.
func (l *Layer) WitnessRefresh(v graph.NodeID) {
	if !l.counter.Valid() {
		return
	}
	if l.wit != nil {
		l.wit.WitnessRefresh(v)
	}
	l.counter.Refresh(v, l.own.OwnViolates(v))
}

// WitnessLegitimate implements Witness. The own verdict short-circuits:
// while the own layer still violates, the inner witness is not asked.
func (l *Layer) WitnessLegitimate() bool {
	l.own.OwnFresh()
	if !l.counter.Valid() {
		l.WitnessReset()
	}
	if !l.counter.Zero() {
		return false
	}
	if l.wit != nil {
		return l.wit.WitnessLegitimate()
	}
	return l.inner.Legitimate()
}

// Snapshot implements Snapshotter: the inner snapshot as one layer
// field, then the own fields.
func (l *Layer) Snapshot() []byte {
	w := NewSnapshotWriter(16 + 8*l.g.N())
	w.Layer(l.snap)
	w = l.own.OwnSnapshot(w)
	return w.Bytes()
}

// Restore implements Snapshotter.
func (l *Layer) Restore(data []byte) error {
	r := NewSnapshotReader(data)
	r.Layer(l.snap)
	r = l.own.OwnRestore(r)
	return r.Err()
}

// CorruptNode implements NodeCorruptor: the inner draws, then the own
// ones.
func (l *Layer) CorruptNode(v graph.NodeID, rng *rand.Rand) {
	if l.corrupt != nil {
		l.corrupt.CorruptNode(v, rng)
	}
	l.own.OwnCorrupt(v, rng)
}

// Randomize implements Randomizer: every node corrupted in id order.
func (l *Layer) Randomize(rng *rand.Rand) {
	for v := range graph.NodeID(l.g.N()) {
		l.CorruptNode(v, rng)
	}
}

// StateBits implements SpaceMeter: the own footprint plus the inner
// one.
func (l *Layer) StateBits(v graph.NodeID) int {
	bits := l.own.OwnStateBits(v)
	if l.space != nil {
		bits += l.space.StateBits(v)
	}
	return bits
}

// TopologyChanged implements TopologyAware: the own arrays grow, the
// inner hook runs and appends its ball, then the own repair appends
// the own ball.
func (l *Layer) TopologyChanged(d graph.Delta, buf []graph.NodeID) []graph.NodeID {
	grew := l.own.OwnGrow(d)
	if l.topo != nil {
		buf = l.topo.TopologyChanged(d, buf)
	}
	return l.own.OwnRepair(d, grew, buf)
}
