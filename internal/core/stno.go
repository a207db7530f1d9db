package core

import (
	"math/rand"

	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
)

// TreeSubstrate is the contract STNO needs from its underlying
// spanning-tree protocol: the guarded-command behaviour, its
// legitimacy predicate L_ST, and the tree's parent pointers.
type TreeSubstrate interface {
	program.Protocol
	program.Legitimacy
	spantree.Substrate
}

// STNO's own actions (Algorithm 4.1.2). The paper writes the rules
// three times — for the root (R*), internal (I*) and leaf (L*)
// processors; the roles emerge here from the substrate's parent
// pointers, so each rule is stated once with identical semantics
// (leaves have no children, so their expected weight is 1; the root
// has no parent, so its expected name is 0).
const (
	// ActWeight is RW/IW/LW: Weight_p := 1 + Σ_{q∈D_p} Weight_q.
	ActWeight program.ActionID = 1<<20 + iota
	// ActName is RN/IN/LN plus the Distribute macro: take the name
	// the parent allocated (the root takes 0) and carve the remaining
	// range into per-child sub-ranges by weight.
	ActName
	// ActSTNOEdge is RE/IE/LE: recompute every incident edge label —
	// tree and non-tree edges alike.
	ActSTNOEdge
)

// STNO is Algorithm 4.1.2: network orientation over a spanning tree.
// Weights flow bottom-up (O(h) rounds), name ranges flow top-down
// (O(h) rounds), and every node then labels all incident edges — tree
// and non-tree — with the chordal labels of SP2.
//
// Per-node state beyond the substrate: Weight and η (⌈log₂N⌉ bits
// each) plus the Start array and π (Δ_p·⌈log₂N⌉ bits each) — the
// O(Δ×log N) of §4.2.3, and the source of the extra O(Δ×log N) the
// paper charges STNO compared to DFTNO in Chapter 5. The embedded
// Layer composes it with the substrate; its witness counter runs over
// OwnViolates.
type STNO struct {
	program.Layer
	orientation // η, π and N

	sub   TreeSubstrate
	roots program.Roots // every root names itself 0; its key dates the witness counters

	weight []int
	start  [][]int // per node, per port; meaningful on child ports, 0 elsewhere

	// subBallRad is the radius of the influence ball substrate moves
	// need: 1 + Substrate.ParentLocality.
	subBallRad int
}

// Compile-time interface compliance.
var (
	_ program.Protocol      = (*STNO)(nil)
	_ program.Legitimacy    = (*STNO)(nil)
	_ program.Snapshotter   = (*STNO)(nil)
	_ program.Randomizer    = (*STNO)(nil)
	_ program.SpaceMeter    = (*STNO)(nil)
	_ program.ActionNamer   = (*STNO)(nil)
	_ program.Influencer    = (*STNO)(nil)
	_ program.TopologyAware = (*STNO)(nil)
	_ program.Rootable      = (*STNO)(nil)
	_ program.Witness       = (*STNO)(nil)
	_ program.LayerOwn      = (*STNO)(nil)
)

// NewSTNO layers the orientation protocol over sub. modulus is N (0
// means exactly n). The composed protocol starts with zeroed
// orientation variables; it is self-stabilizing, so any start works —
// use Randomize for adversarial ones.
func NewSTNO(g *graph.Graph, sub TreeSubstrate, modulus int) (*STNO, error) {
	o, err := newOrientation(g, modulus)
	if err != nil {
		return nil, err
	}
	s := &STNO{
		orientation: o,
		sub:         sub,
		roots:       program.NewRoots(g, sub.Root()),
		weight:      make([]int, g.N()),
		start:       make([][]int, g.N()),
		subBallRad:  1 + sub.ParentLocality(),
	}
	for v := range s.start {
		s.start[v] = make([]int, g.Ports(graph.NodeID(v)))
	}
	s.Layer = program.NewLayer(g, "stno", sub, ActWeight, s)
	return s, nil
}

// Substrate returns the underlying tree layer.
func (s *STNO) Substrate() TreeSubstrate { return s.sub }

// WeightOf returns node v's Weight variable.
func (s *STNO) WeightOf(v graph.NodeID) int { return s.weight[v] }

// BindRootAuthority implements program.Rootable: the binding is
// forwarded to the tree substrate (which re-anchors its reference
// structure) and recorded here so expectedEta names every effective
// root 0. The witness counters are invalidated — a root flip changes
// clause verdicts without touching any node.
func (s *STNO) BindRootAuthority(a program.RootAuthority) {
	if r, ok := s.sub.(program.Rootable); ok {
		r.BindRootAuthority(a)
	}
	s.roots.Bind(a)
	s.InvalidateWitness()
}

// OwnFresh implements program.LayerOwn: a root-set change changes
// clause verdicts without touching any node, so it invalidates the
// witness counter.
func (s *STNO) OwnFresh() {
	if s.roots.Moved() {
		s.InvalidateWitness()
	}
}

// expectedWeight is CalcWeight: 1 + Σ_{q∈D_v} Weight_q (1 for leaves).
// D_v is enumerated inline rather than through a shared scratch
// buffer: guards and statements of distinct nodes run concurrently in
// the parallel stepper, so per-instance mutable scratch is off-limits
// on any path Enabled or Execute can reach.
func (s *STNO) expectedWeight(v graph.NodeID) int {
	w := 1
	for _, q := range s.g.Neighbors(v) {
		if q != graph.None && s.sub.Parent(q) == v {
			w += s.weight[q]
		}
	}
	return w
}

// expectedEta returns the name v's parent currently allocates to it
// (Start_{A_v}[v]); ok is false when v is not the root and has no
// valid parent. The root's name is 0.
func (s *STNO) expectedEta(v graph.NodeID) (int, bool) {
	if s.roots.IsRoot(v) {
		return 0, true
	}
	p := s.sub.Parent(v)
	if p == graph.None {
		return 0, false
	}
	port, ok := s.g.PortOf(p, v)
	if !ok {
		return 0, false
	}
	return s.start[p][port], true
}

// wantStart computes the Distribute macro's target Start array for v:
// given := η_v; each child q (in port order) receives Start_v[q] :=
// given+1 and given advances by Weight_q; non-child entries are zero.
func (s *STNO) wantStart(v graph.NodeID, out []int) []int {
	out = out[:0]
	given := s.eta[v]
	for _, q := range s.g.Neighbors(v) {
		if q != graph.None && s.sub.Parent(q) == v {
			out = append(out, given+1)
			given += s.weight[q]
		} else {
			// Non-child and hole ports alike hold zero, keeping the
			// array port-aligned.
			out = append(out, 0)
		}
	}
	return out
}

// nameInvalid is InvalidNodelabel ∨ a stale Start array. The
// Distribute comparison runs inline against Start_v instead of
// materialising the target array: it keeps the guard allocation-free
// (it runs on every evaluation of every node) without a shared
// scratch buffer, which concurrent guard evaluations in the parallel
// stepper could not tolerate.
func (s *STNO) nameInvalid(v graph.NodeID) bool {
	if want, ok := s.expectedEta(v); ok && s.eta[v] != want {
		return true
	}
	given := s.eta[v]
	for port, q := range s.g.Neighbors(v) {
		want := 0
		if q != graph.None && s.sub.Parent(q) == v {
			want = given + 1
			given += s.weight[q]
		}
		if s.start[v][port] != want {
			return true
		}
	}
	return false
}

// OwnEnabled implements program.LayerOwn.
func (s *STNO) OwnEnabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	if s.weight[v] != s.expectedWeight(v) {
		buf = append(buf, ActWeight)
	}
	if s.nameInvalid(v) {
		buf = append(buf, ActName)
	}
	if s.invalidEdgeLabel(v) {
		buf = append(buf, ActSTNOEdge)
	}
	return buf
}

// OwnExecute implements program.LayerOwn.
func (s *STNO) OwnExecute(v graph.NodeID, a program.ActionID) bool {
	switch a {
	case ActWeight:
		w := s.expectedWeight(v)
		if s.weight[v] == w {
			return false
		}
		s.weight[v] = w
		return true
	case ActName:
		if !s.nameInvalid(v) {
			return false
		}
		if want, ok := s.expectedEta(v); ok {
			s.eta[v] = want
		}
		s.start[v] = s.wantStart(v, s.start[v][:0])
		return true
	case ActSTNOEdge:
		if !s.invalidEdgeLabel(v) {
			return false
		}
		s.relabel(v)
		return true
	}
	return false
}

// Influence implements program.Influencer, documenting the locality
// audit for the composed protocol. STNO's own statements (CalcWeight,
// NameAndDistribute, EdgeLabel) write only Weight_v, η_v, Start_v and
// π_v, all of which are read one hop away at most (a neighbour's
// weight/name guards, the Start entry a child copies its name from,
// the η that edge labels compare against), so those actions influence
// the closed 1-hop neighbourhood. Substrate moves are the non-local
// case: STNO guards consult Parent(q) for each neighbour q, and
// Parent itself may read ParentLocality() hops around q (a DFS tree
// derives the parent from the neighbours' path variables), so a
// substrate move at v reaches guards up to 1+ParentLocality() hops
// out. That ball is reported as a closed walk, repeats included, which
// keeps Influence free of scratch in concurrent workers.
func (s *STNO) Influence(v graph.NodeID, a program.ActionID, buf []graph.NodeID) []graph.NodeID {
	if a >= ActWeight {
		return program.InfluenceClosedNeighborhood(s.g, v, buf)
	}
	return program.InfluenceWalk(s.g, v, s.subBallRad, buf)
}

// LocalityRadius implements program.LocalityRadius for the sharded
// parallel stepper: STNO's guards read up to 1+ParentLocality() hops
// (the substrate-parent argument of the Influence audit above), its
// statements write only v's own variables, and every influence set is
// a ball of that radius, so the declared radius is subBallRad.
func (s *STNO) LocalityRadius() int { return s.subBallRad }

// OwnActionName implements program.LayerOwn.
func (s *STNO) OwnActionName(a program.ActionID) string {
	switch a {
	case ActWeight:
		return "CalcWeight"
	case ActName:
		return "NameAndDistribute"
	case ActSTNOEdge:
		return "EdgeLabel"
	}
	return ""
}

// OwnViolates implements program.LayerOwn: STNO's per-node clause of
// L_NO = L_ST ∧ SP1 ∧ SP2, which the Layer conjoins with the
// substrate's legitimacy. STNO is silent, so legitimacy is exactly
// "the substrate is legitimate and no orientation action is enabled":
// on a stable tree the weight equations force the true subtree sizes,
// the range distribution then forces the preorder naming (SP1), and
// the label equations force SP2. Dead nodes (topology churn) are
// outside the predicate.
func (s *STNO) OwnViolates(v graph.NodeID) bool {
	if !s.g.Alive(v) {
		return false
	}
	return s.weight[v] != s.expectedWeight(v) || s.nameInvalid(v) || s.invalidEdgeLabel(v)
}

// OwnGrow implements program.LayerOwn: Weight, η, Start and π cover
// the grown id space (N rising with it) and the touched nodes' port
// spaces. A grown id space invalidates the witness counter.
func (s *STNO) OwnGrow(d graph.Delta) bool {
	grew := s.grow(d)
	if grew {
		for len(s.weight) < len(s.eta) {
			s.weight = append(s.weight, 0)
			s.start = append(s.start, nil)
		}
		s.InvalidateWitness()
	}
	for _, v := range d.Touched {
		for len(s.start[v]) < s.g.Ports(v) {
			s.start[v] = append(s.start[v], 0)
		}
	}
	return grew
}

// OwnRepair implements program.LayerOwn. STNO keeps no derived
// topology facts; its ball is the radius 1+ParentLocality() walk
// around each touched node: STNO guards read their neighbours'
// substrate-derived Parent, which itself reads ParentLocality() hops,
// so a topology event is visible that far out — the same widening the
// Influence declaration applies to substrate moves.
func (s *STNO) OwnRepair(d graph.Delta, _ bool, buf []graph.NodeID) []graph.NodeID {
	for _, v := range d.Touched {
		buf = program.InfluenceWalk(s.g, v, s.subBallRad, buf)
	}
	return buf
}

// OwnSnapshot implements program.LayerOwn: Weight, η, Start and π
// after the substrate snapshot.
func (s *STNO) OwnSnapshot(w program.SnapshotWriter) program.SnapshotWriter {
	for v := 0; v < s.g.N(); v++ {
		w.Int(s.weight[v])
		w.Int(s.eta[v])
		for _, x := range s.start[v] {
			w.Int(x)
		}
		for _, x := range s.pi[v] {
			w.Int(x)
		}
	}
	return w
}

// OwnRestore implements program.LayerOwn.
func (s *STNO) OwnRestore(r program.SnapshotReader) program.SnapshotReader {
	for v := 0; v < s.g.N(); v++ {
		s.weight[v] = r.Int()
		s.eta[v] = r.Int()
		for port := range s.start[v] {
			s.start[v][port] = r.Int()
		}
		for port := range s.pi[v] {
			s.pi[v][port] = r.Int()
		}
	}
	return r
}

// OwnCorrupt implements program.LayerOwn: v's variables take arbitrary
// values of their domains (Weight ∈ 1..N, η ∈ 0..N−1, Start and π
// entries ∈ 0..N−1, per Algorithm 4.1.2's declarations), after the
// substrate's draws.
func (s *STNO) OwnCorrupt(v graph.NodeID, rng *rand.Rand) {
	s.weight[v] = 1 + rng.Intn(s.modulus)
	s.eta[v] = rng.Intn(s.modulus)
	for port := range s.start[v] {
		s.start[v][port] = rng.Intn(s.modulus)
	}
	for port := range s.pi[v] {
		s.pi[v][port] = rng.Intn(s.modulus)
	}
}

// OwnStateBits implements program.LayerOwn: the orientation layer's
// own footprint at v, Weight and η (⌈log₂N⌉ each) plus the Start array
// and π (Δ_v·⌈log₂N⌉ each).
func (s *STNO) OwnStateBits(v graph.NodeID) int {
	lg := program.Log2Ceil(s.modulus)
	return 2*lg + 2*s.g.Degree(v)*lg
}
