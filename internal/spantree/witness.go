package spantree

import (
	"netorient/internal/graph"
	"netorient/internal/program"
)

// This file implements program.Witness for both self-stabilizing tree
// substrates. Their legitimacy predicates are plain per-node
// conjunctions, so each witness is one program.ViolationCounter: node
// v contributes a violation iff its clause of Legitimate() fails, and
// the clause reads at most v's closed 1-hop neighbourhood — within
// both protocols' declared influence sets, so the runner's dirty-set
// refreshes keep the counter exact.

// Compile-time interface compliance.
var (
	_ program.Witness = (*BFSTree)(nil)
	_ program.Witness = (*DFSTree)(nil)
	_ program.Witness = (*Oracle)(nil)
)

// bfsViolates is BFSTree's Legitimate() clause at v: the action is
// enabled, or the distance disagrees with the reference distance (n
// when no root reaches v). Dead nodes (topology churn) are outside the
// predicate.
func (t *BFSTree) bfsViolates(v graph.NodeID) bool {
	if !t.g.Alive(v) {
		return false
	}
	want := t.ref.Depth(v)
	if want < 0 {
		want = t.g.N()
	}
	d, p := t.desired(v)
	return t.dist[v] != d || t.par[v] != p || t.dist[v] != want
}

// WitnessReset implements program.Witness.
func (t *BFSTree) WitnessReset() { t.wit.Reset(t.g.N(), t.bfsViolates) }

// WitnessRefresh implements program.Witness.
func (t *BFSTree) WitnessRefresh(v graph.NodeID) {
	if t.wit.Valid() {
		t.wit.Refresh(v, t.bfsViolates(v))
	}
}

// WitnessLegitimate implements program.Witness. ensureRef first: a
// root-set change re-anchors the reference distances without touching
// any node, invalidating the counters.
func (t *BFSTree) WitnessLegitimate() bool {
	t.ensureRef()
	if !t.wit.Valid() {
		t.WitnessReset()
	}
	return t.wit.Zero()
}

// dfsViolates is DFSTree's Legitimate() clause at v: the path differs
// from the true minimal path, the port path from v's root in the
// reference forest (⊥ when no root reaches v). It reads only v's own
// variable. Dead nodes are outside the predicate.
func (t *DFSTree) dfsViolates(v graph.NodeID) bool {
	if !t.g.Alive(v) {
		return false
	}
	if p := t.path[v]; p != nil {
		return !t.ref.IsPortPath(v, p)
	}
	return t.ref.Reached(v)
}

// WitnessReset implements program.Witness.
func (t *DFSTree) WitnessReset() { t.wit.Reset(t.g.N(), t.dfsViolates) }

// WitnessRefresh implements program.Witness.
func (t *DFSTree) WitnessRefresh(v graph.NodeID) {
	if t.wit.Valid() {
		t.wit.Refresh(v, t.dfsViolates(v))
	}
}

// WitnessLegitimate implements program.Witness; ensureRef as for the
// BFS tree.
func (t *DFSTree) WitnessLegitimate() bool {
	t.ensureRef()
	if !t.wit.Valid() {
		t.WitnessReset()
	}
	return t.wit.Zero()
}

// The fixed Oracle is legitimate by construction; its witness is the
// constant true, giving layers composed over it an O(1) substrate
// verdict.

// WitnessReset implements program.Witness.
func (o *Oracle) WitnessReset() {}

// WitnessRefresh implements program.Witness.
func (o *Oracle) WitnessRefresh(graph.NodeID) {}

// WitnessLegitimate implements program.Witness.
func (o *Oracle) WitnessLegitimate() bool { return true }
