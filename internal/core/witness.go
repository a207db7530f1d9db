package core

import (
	"netorient/internal/graph"
	"netorient/internal/program"
)

// This file implements program.Witness for both orientation layers.
// Each layer's legitimacy predicate is "substrate legitimate ∧ a
// per-node conjunction", so the witness is one
// program.ViolationCounter over the layer's own clauses, conjoined
// with the substrate's witness verdict (or its Legitimate()/Stable()
// when the substrate has no witness — the token Oracle's and tree
// Oracle's are O(1) anyway). Every clause reads at most as far as the
// layer's declared Influence sets, so the runner's dirty-set refreshes
// keep the counter exact; WitnessRefresh forwards each refresh to the
// substrate witness, which keeps the composed verdict exact too.

// Compile-time interface compliance.
var (
	_ program.Witness = (*DFTNO)(nil)
	_ program.Witness = (*STNO)(nil)
)

// dftnoViolates is DFTNO's per-node clause of Legitimate(). Dead nodes
// (topology churn) are outside the predicate; orphan nodes (reference
// name −1, unreachable from the root) carry only the SP2 clause.
// Deltas that change reachability rebuild the reference forest and
// invalidate the counter, so the orphan classification is never stale
// here.
func (d *DFTNO) dftnoViolates(v graph.NodeID) bool {
	if !d.g.Alive(v) {
		return false
	}
	if d.ref.Name(v) < 0 {
		return d.invalidEdgeLabel(v)
	}
	return d.eta[v] != d.ref.Name(v) || !d.positionOK(v) || d.invalidEdgeLabel(v)
}

// WitnessReset implements program.Witness.
func (d *DFTNO) WitnessReset() {
	if d.subWit != nil {
		d.subWit.WitnessReset()
	}
	d.wit.Reset(d.g.N(), d.dftnoViolates)
}

// WitnessRefresh implements program.Witness.
func (d *DFTNO) WitnessRefresh(v graph.NodeID) {
	if !d.wit.Valid() {
		return
	}
	if d.subWit != nil {
		d.subWit.WitnessRefresh(v)
	}
	d.wit.Refresh(v, d.dftnoViolates(v))
}

// WitnessLegitimate implements program.Witness. ensureRef first: a
// root-set change re-anchors the reference naming without touching any
// node, invalidating the counters.
func (d *DFTNO) WitnessLegitimate() bool {
	d.ensureRef()
	if !d.wit.Valid() {
		d.WitnessReset()
	}
	if !d.wit.Zero() {
		return false
	}
	if d.subWit != nil {
		return d.subWit.WitnessLegitimate()
	}
	return d.sub.Legitimate()
}

// stnoViolates is STNO's per-node clause of Legitimate(). Dead nodes
// (topology churn) are outside the predicate.
func (s *STNO) stnoViolates(v graph.NodeID) bool {
	if !s.g.Alive(v) {
		return false
	}
	return s.weight[v] != s.expectedWeight(v) || s.nameInvalid(v) || s.invalidEdgeLabel(v)
}

// WitnessReset implements program.Witness.
func (s *STNO) WitnessReset() {
	if s.subWit != nil {
		s.subWit.WitnessReset()
	}
	s.wit.Reset(s.g.N(), s.stnoViolates)
}

// WitnessRefresh implements program.Witness.
func (s *STNO) WitnessRefresh(v graph.NodeID) {
	if !s.wit.Valid() {
		return
	}
	if s.subWit != nil {
		s.subWit.WitnessRefresh(v)
	}
	s.wit.Refresh(v, s.stnoViolates(v))
}

// WitnessLegitimate implements program.Witness. A root-set change
// changes clause verdicts without touching any node, so it invalidates
// the counters first.
func (s *STNO) WitnessLegitimate() bool {
	if s.roots.Moved() {
		s.wit.Invalidate()
	}
	if !s.wit.Valid() {
		s.WitnessReset()
	}
	if !s.wit.Zero() {
		return false
	}
	if s.subWit != nil {
		return s.subWit.WitnessLegitimate()
	}
	return s.sub.Stable()
}
