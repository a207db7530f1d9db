package core

import (
	"fmt"
	"math/rand"

	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/sod"
	"netorient/internal/spantree"
)

// TreeSubstrate is the contract STNO needs from its underlying
// spanning-tree protocol.
type TreeSubstrate interface {
	program.Protocol
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
// paper charges STNO compared to DFTNO in Chapter 5.
type STNO struct {
	g       *graph.Graph
	sub     TreeSubstrate
	modulus int
	roots   program.Roots // every root names itself 0; its key dates the witness counters

	weight []int
	eta    []int
	start  [][]int // per node, per port; meaningful on child ports, 0 elsewhere
	pi     [][]int

	// subBallRad is the radius of the influence ball substrate moves
	// need: 1 + Substrate.ParentLocality.
	subBallRad int

	// wit is the incremental legitimacy witness (see witness.go).
	wit    program.ViolationCounter
	subWit program.Witness // type-asserted from sub; nil ⇒ fall back to sub.Stable

	// Optional substrate capabilities, type-asserted once from sub;
	// nil ⇒ the layer skips the substrate (an empty snapshot layer, no
	// substrate corruption, no topology hook).
	subSnap    program.Snapshotter
	subCorrupt program.NodeCorruptor
	subTopo    program.TopologyAware
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
)

// NewSTNO layers the orientation protocol over sub. modulus is N (0
// means exactly n). The composed protocol starts with zeroed
// orientation variables; it is self-stabilizing, so any start works —
// use Randomize for adversarial ones.
func NewSTNO(g *graph.Graph, sub TreeSubstrate, modulus int) (*STNO, error) {
	if modulus == 0 {
		modulus = g.N()
	}
	if modulus < g.N() {
		return nil, fmt.Errorf("core: modulus %d below node count %d", modulus, g.N())
	}
	s := &STNO{
		g:       g,
		sub:     sub,
		modulus: modulus,
		roots:   program.NewRoots(g, sub.Root()),
		weight:  make([]int, g.N()),
		eta:     make([]int, g.N()),
		start:   make([][]int, g.N()),
		pi:      make([][]int, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		deg := g.Ports(graph.NodeID(v))
		s.start[v] = make([]int, deg)
		s.pi[v] = make([]int, deg)
	}
	s.subBallRad = 1 + sub.ParentLocality()
	s.subWit, _ = sub.(program.Witness)
	s.subSnap, _ = sub.(program.Snapshotter)
	s.subCorrupt, _ = sub.(program.NodeCorruptor)
	s.subTopo, _ = sub.(program.TopologyAware)
	return s, nil
}

// Name implements program.Protocol.
func (s *STNO) Name() string { return "stno/" + s.sub.Name() }

// Graph implements program.Protocol.
func (s *STNO) Graph() *graph.Graph { return s.g }

// Modulus returns N.
func (s *STNO) Modulus() int { return s.modulus }

// Substrate returns the underlying tree layer.
func (s *STNO) Substrate() TreeSubstrate { return s.sub }

// Names returns a copy of the current η vector.
func (s *STNO) Names() []int {
	out := make([]int, len(s.eta))
	copy(out, s.eta)
	return out
}

// WeightOf returns node v's Weight variable.
func (s *STNO) WeightOf(v graph.NodeID) int { return s.weight[v] }

// Labeling exports the current orientation.
func (s *STNO) Labeling() *sod.Labeling {
	l := &sod.Labeling{
		Modulus: s.modulus,
		Names:   s.Names(),
		Labels:  make([][]int, s.g.N()),
	}
	for v := range s.pi {
		l.Labels[v] = make([]int, len(s.pi[v]))
		copy(l.Labels[v], s.pi[v])
	}
	return l
}

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
	s.wit.Invalidate()
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

// invalidEdgeLabel is InvalidEdgelabel(p). Hole ports have no edge to
// label and are skipped.
func (s *STNO) invalidEdgeLabel(v graph.NodeID) bool {
	for port, q := range s.g.Neighbors(v) {
		if q == graph.None {
			continue
		}
		if s.pi[v][port] != sod.ChordalLabel(s.eta[v], s.eta[q], s.modulus) {
			return true
		}
	}
	return false
}

// Enabled implements program.Protocol.
func (s *STNO) Enabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	buf = s.sub.Enabled(v, buf)
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

// Execute implements program.Protocol.
func (s *STNO) Execute(v graph.NodeID, a program.ActionID) bool {
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
		for port, q := range s.g.Neighbors(v) {
			if q == graph.None {
				continue
			}
			s.pi[v][port] = sod.ChordalLabel(s.eta[v], s.eta[q], s.modulus)
		}
		return true
	default:
		return s.sub.Execute(v, a)
	}
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

// ActionName implements program.ActionNamer.
func (s *STNO) ActionName(a program.ActionID) string {
	switch a {
	case ActWeight:
		return "CalcWeight"
	case ActName:
		return "NameAndDistribute"
	case ActSTNOEdge:
		return "EdgeLabel"
	}
	return program.ActionName(s.sub, a)
}

// Legitimate implements program.Legitimacy: L_NO = L_ST ∧ SP1 ∧ SP2.
// STNO is silent, so legitimacy is exactly "the substrate is stable
// and no orientation action is enabled": on a stable tree the weight
// equations force the true subtree sizes, the range distribution then
// forces the preorder naming (SP1), and the label equations force SP2.
func (s *STNO) Legitimate() bool {
	if !s.sub.Stable() {
		return false
	}
	for v := 0; v < s.g.N(); v++ {
		id := graph.NodeID(v)
		if !s.g.Alive(id) {
			continue
		}
		if s.weight[v] != s.expectedWeight(id) || s.nameInvalid(id) || s.invalidEdgeLabel(id) {
			return false
		}
	}
	return true
}

// TopologyChanged implements program.TopologyAware for the composed
// stack: forward to the substrate, grow node-indexed arrays if the id
// space grew, rebind the port-indexed Start and π arrays of touched
// nodes. The returned ball is the radius 1+ParentLocality() walk
// around each touched node: STNO guards read their neighbours'
// substrate-derived Parent, which itself reads ParentLocality() hops,
// so a topology event is visible that far out — the same widening the
// Influence declaration applies to substrate moves.
func (s *STNO) TopologyChanged(d graph.Delta, buf []graph.NodeID) []graph.NodeID {
	if s.subTopo != nil {
		buf = s.subTopo.TopologyChanged(d, buf)
	}
	if n := s.g.N(); len(s.eta) < n {
		for len(s.eta) < n {
			s.eta = append(s.eta, 0)
			s.weight = append(s.weight, 0)
			s.start = append(s.start, nil)
			s.pi = append(s.pi, nil)
		}
		if s.modulus < n {
			s.modulus = n // see the DFTNO hook: the size bound must cover the grown network
		}
		s.wit.Invalidate()
	}
	for _, v := range d.Touched {
		for len(s.start[v]) < s.g.Ports(v) {
			s.start[v] = append(s.start[v], 0)
		}
		for len(s.pi[v]) < s.g.Ports(v) {
			s.pi[v] = append(s.pi[v], 0)
		}
	}
	for _, v := range d.Touched {
		buf = program.InfluenceWalk(s.g, v, s.subBallRad, buf)
	}
	return buf
}

// Snapshot implements program.Snapshotter: the substrate snapshot (if
// it supports snapshots) followed by Weight, η, Start and π.
func (s *STNO) Snapshot() []byte {
	w := program.NewSnapshotWriter(16 + 8*s.g.N())
	w.Layer(s.subSnap)
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
	return w.Bytes()
}

// Restore implements program.Snapshotter.
func (s *STNO) Restore(data []byte) error {
	r := program.NewSnapshotReader(data)
	r.Layer(s.subSnap)
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
	return r.Err()
}

// CorruptNode implements program.NodeCorruptor: v's variables take
// arbitrary values of their domains (Weight ∈ 1..N, η ∈ 0..N−1,
// Start and π entries ∈ 0..N−1, per Algorithm 4.1.2's declarations).
func (s *STNO) CorruptNode(v graph.NodeID, rng *rand.Rand) {
	if s.subCorrupt != nil {
		s.subCorrupt.CorruptNode(v, rng)
	}
	s.weight[v] = 1 + rng.Intn(s.modulus)
	s.eta[v] = rng.Intn(s.modulus)
	for port := range s.start[v] {
		s.start[v][port] = rng.Intn(s.modulus)
	}
	for port := range s.pi[v] {
		s.pi[v][port] = rng.Intn(s.modulus)
	}
}

// Randomize implements program.Randomizer.
func (s *STNO) Randomize(rng *rand.Rand) {
	for v := 0; v < s.g.N(); v++ {
		s.CorruptNode(graph.NodeID(v), rng)
	}
}

// OrientationBits returns the orientation layer's own footprint at v:
// Weight and η (⌈log₂N⌉ each) plus the Start array and π
// (Δ_v·⌈log₂N⌉ each).
func (s *STNO) OrientationBits(v graph.NodeID) int {
	lg := program.Log2Ceil(s.modulus)
	return 2*lg + 2*s.g.Degree(v)*lg
}

// StateBits implements program.SpaceMeter: orientation plus substrate.
func (s *STNO) StateBits(v graph.NodeID) int {
	bits := s.OrientationBits(v)
	if m, ok := s.sub.(program.SpaceMeter); ok {
		bits += m.StateBits(v)
	}
	return bits
}
