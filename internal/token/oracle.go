package token

import (
	"fmt"
	"math/rand"

	"netorient/internal/graph"
	"netorient/internal/program"
)

// eventKind discriminates Oracle trace entries.
type eventKind uint8

const (
	evRootStart eventKind = iota + 1
	evForward
	evBacktrack
)

// oracleEvent is one token movement in the ideal circulation.
type oracleEvent struct {
	kind  eventKind
	actor graph.NodeID // the processor executing the move
	other graph.NodeID // parent (forward) or child (backtrack)
}

// Oracle is a correct-by-construction token circulation layer: it
// replays the ideal deterministic DFS circulation of the graph,
// exposing exactly one enabled processor at a time. It is not
// self-stabilizing (its single position variable is its whole state);
// it exists so the orientation layer can be unit-tested against a
// substrate that is legitimate by definition, matching the paper's
// layered correctness argument.
type Oracle struct {
	g      *graph.Graph
	root   graph.NodeID
	ev     Events
	events []oracleEvent
	parent []graph.NodeID
	pos    int

	// Live traversal status, maintained in O(1) per executed event so
	// the Substrate introspection queries (Finished, Pointing,
	// SameRound, Behind) answer without replaying the trace. The
	// status mirrors the circulator's post-advance configurations:
	// a node starts exploring its first DFS child the moment it is
	// visited, moves to the next child when the token backtracks, and
	// finishes when its children are exhausted.
	children [][]graph.NodeID // DFS-tree children in port order
	round    uint64           // increments at every RootStart
	vround   []uint64         // round in which v was last visited
	done     []bool           // v's subtree fully explored this round
	childIdx []int            // index into children[v] of the child being explored
}

// Compile-time interface compliance.
var (
	_ program.Protocol    = (*Oracle)(nil)
	_ program.Legitimacy  = (*Oracle)(nil)
	_ program.Snapshotter = (*Oracle)(nil)
	_ program.Randomizer  = (*Oracle)(nil)
	_ program.SpaceMeter  = (*Oracle)(nil)
	_ program.Influencer  = (*Oracle)(nil)
	_ Substrate           = (*Oracle)(nil)
)

// NewOracle returns an Oracle for g rooted at root, positioned at the
// start of a round.
func NewOracle(g *graph.Graph, root graph.NodeID) (*Oracle, error) {
	if root < 0 || int(root) >= g.N() {
		return nil, fmt.Errorf("token: root %d out of range for %s", root, g)
	}
	if !g.Connected() {
		return nil, graph.ErrNotConnected
	}
	o := &Oracle{g: g, root: root}
	o.build()
	return o, nil
}

// build precomputes one round's event trace by recursive DFS in port
// order, and initialises the live status to the between-rounds
// configuration (everyone finished, positioned before the RootStart).
func (o *Oracle) build() {
	n := o.g.N()
	o.parent = make([]graph.NodeID, n)
	o.children = make([][]graph.NodeID, n)
	visited := make([]bool, n)
	for i := range o.parent {
		o.parent[i] = graph.None
	}
	o.events = append(o.events[:0], oracleEvent{kind: evRootStart, actor: o.root, other: graph.None})
	var visit func(v graph.NodeID)
	visit = func(v graph.NodeID) {
		visited[v] = true
		for _, q := range o.g.Neighbors(v) {
			if visited[q] {
				continue
			}
			o.parent[q] = v
			o.children[v] = append(o.children[v], q)
			o.events = append(o.events, oracleEvent{kind: evForward, actor: q, other: v})
			visit(q)
			o.events = append(o.events, oracleEvent{kind: evBacktrack, actor: v, other: q})
		}
	}
	visit(o.root)
	o.resetStatus()
}

// resetStatus rewinds the live status to the between-rounds base.
func (o *Oracle) resetStatus() {
	n := o.g.N()
	if o.vround == nil {
		o.vround = make([]uint64, n)
		o.done = make([]bool, n)
		o.childIdx = make([]int, n)
	}
	o.round = 0
	for v := 0; v < n; v++ {
		o.vround[v] = 0
		o.done[v] = true
		o.childIdx[v] = 0
	}
}

// applyStatus folds one executed event into the live status.
func (o *Oracle) applyStatus(e oracleEvent) {
	switch e.kind {
	case evRootStart:
		o.round++
		o.visitStatus(o.root)
	case evForward:
		o.visitStatus(e.actor)
	case evBacktrack:
		o.childIdx[e.actor]++
		if o.childIdx[e.actor] == len(o.children[e.actor]) {
			o.done[e.actor] = true
		}
	}
}

// visitStatus marks v visited in the current round, exploring its
// first DFS child (or finished outright, for DFS leaves).
func (o *Oracle) visitStatus(v graph.NodeID) {
	o.vround[v] = o.round
	o.childIdx[v] = 0
	o.done[v] = len(o.children[v]) == 0
}

// rebuildStatus replays the round prefix ending at o.pos from the
// between-rounds base — O(round length), used only by Restore and
// Randomize, which reposition arbitrarily.
func (o *Oracle) rebuildStatus() {
	o.resetStatus()
	for i := 0; i < o.pos; i++ {
		o.applyStatus(o.events[i])
	}
}

// Name implements program.Protocol.
func (o *Oracle) Name() string { return "dftc-oracle" }

// Graph implements program.Protocol.
func (o *Oracle) Graph() *graph.Graph { return o.g }

// Root implements Substrate.
func (o *Oracle) Root() graph.NodeID { return o.root }

// Parent implements Substrate.
func (o *Oracle) Parent(v graph.NodeID) graph.NodeID { return o.parent[v] }

// SetObserver implements Substrate.
func (o *Oracle) SetObserver(ev Events) { o.ev = ev }

// HasToken implements Substrate.
func (o *Oracle) HasToken(v graph.NodeID) bool {
	return o.events[o.pos].actor == v
}

// Finished implements Substrate.
func (o *Oracle) Finished(v graph.NodeID) bool { return o.done[v] }

// Pointing implements Substrate: the DFS child v currently explores.
func (o *Oracle) Pointing(v graph.NodeID) graph.NodeID {
	if o.done[v] || o.vround[v] != o.round {
		return graph.None
	}
	return o.children[v][o.childIdx[v]]
}

// SameRound implements Substrate.
func (o *Oracle) SameRound(u, v graph.NodeID) bool { return o.vround[u] == o.vround[v] }

// Behind implements Substrate.
func (o *Oracle) Behind(u, v graph.NodeID) bool { return o.vround[u] < o.vround[v] }

// RoundLength returns the number of moves in one circulation round.
func (o *Oracle) RoundLength() int { return len(o.events) }

// Enabled implements program.Protocol: exactly the next event's actor
// is enabled, with the single action 0.
func (o *Oracle) Enabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	if o.events[o.pos].actor == v {
		buf = append(buf, 0)
	}
	return buf
}

// Execute implements program.Protocol.
func (o *Oracle) Execute(v graph.NodeID, a program.ActionID) bool {
	e := o.events[o.pos]
	if a != 0 || e.actor != v {
		return false
	}
	o.pos = (o.pos + 1) % len(o.events)
	o.applyStatus(e)
	if o.ev != nil {
		switch e.kind {
		case evRootStart:
			o.ev.OnRootStart(e.actor)
		case evForward:
			o.ev.OnForward(e.actor, e.other)
		case evBacktrack:
			o.ev.OnBacktrack(e.actor, e.other)
		}
	}
	return true
}

// Influence implements program.Influencer. The Oracle's single
// position variable is global, so locality needs an argument: a move
// at v advances pos by one, disabling v and enabling the next event's
// actor. Consecutive events of a DFS traversal are always executed by
// adjacent (or identical) processors — a Forward hands the token to a
// neighbour, a Backtrack returns it from one, and the wrap-around
// RootStart follows the final Backtrack at the root itself — so the
// move's influence is exactly v's closed 1-hop neighbourhood.
func (o *Oracle) Influence(v graph.NodeID, _ program.ActionID, buf []graph.NodeID) []graph.NodeID {
	return program.InfluenceClosedNeighborhood(o.g, v, buf)
}

// Legitimate implements program.Legitimacy; the Oracle is legitimate
// by construction.
func (o *Oracle) Legitimate() bool { return true }

// Snapshot implements program.Snapshotter.
func (o *Oracle) Snapshot() []byte {
	var w program.SnapshotWriter
	w.Int(o.pos)
	return w.Bytes()
}

// Restore implements program.Snapshotter.
func (o *Oracle) Restore(data []byte) error {
	r := program.NewSnapshotReader(data)
	pos := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if pos < 0 || pos >= len(o.events) {
		return fmt.Errorf("token: oracle position %d out of range [0,%d)", pos, len(o.events))
	}
	o.pos = pos
	o.rebuildStatus()
	return nil
}

// Randomize implements program.Randomizer: the circulation resumes
// from an arbitrary point of the round.
func (o *Oracle) Randomize(rng *rand.Rand) {
	o.pos = rng.Intn(len(o.events))
	o.rebuildStatus()
}

// StateBits implements program.SpaceMeter: the oracle's global
// position amortised per node.
func (o *Oracle) StateBits(graph.NodeID) int {
	return program.Log2Ceil(len(o.events)) / o.g.N()
}
