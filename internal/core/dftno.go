package core

import (
	"errors"
	"fmt"
	"math/rand"

	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/sod"
	"netorient/internal/token"
)

// TokenSubstrate is the contract DFTNO needs from its underlying
// depth-first token circulation protocol: the guarded-command
// behaviour, a legitimacy predicate, canonical snapshots, and the
// token-layer interface (parent pointers, token location, event
// hooks).
type TokenSubstrate interface {
	program.Protocol
	program.Legitimacy
	program.Snapshotter
	token.Substrate
}

// ActEdgeLabel is DFTNO's own action (Algorithm 3.1.1's third rule):
// with no token present and an inconsistent edge label, recompute
// every label π_p[l] := (η_p − η_q) mod N. Substrate actions keep
// their own IDs; this one is offset far above them.
const ActEdgeLabel program.ActionID = 1 << 20

// DFTNO is Algorithm 3.1.1: network orientation by depth-first token
// circulation. The composed protocol exposes the substrate's actions
// (whose Forward/Backtrack/round-start events atomically run the
// paper's Nodelabel and UpdateMax macros, mirroring the paper's macro
// expansion) plus the edge-labeling correction action.
//
// Per-node state beyond the substrate: η (name), Max (largest name the
// node is aware of) and π (one label per incident edge) — 2·⌈log₂N⌉ +
// Δ_p·⌈log₂N⌉ bits, the paper's O(Δ×log N).
type DFTNO struct {
	g       *graph.Graph
	sub     TokenSubstrate
	modulus int
	roots   program.Roots // where the reference naming is anchored, and its staleness key

	eta []int
	max []int
	pi  [][]int

	// ref is the reference forest: the port-order DFS from the live
	// roots, whose preorder is exactly the order the legitimate
	// circulation visits (and names) the nodes. ref.Name(v) is v's
	// stable name and ref.Last(v) the largest name in v's DFS subtree.
	// Together with the substrate's traversal introspection they decide
	// the legitimacy predicate L_NO = L_TC ∧ SP1 ∧ SP2 (§3.2) as a
	// per-node position invariant (see positionOK), replacing the
	// recorded-cycle snapshot map that previously cost O(n²) bytes.
	// Each live root names its component 0..|C|−1, as OnRootStart names
	// a root 0; a transient second root inside a walked component keeps
	// the first root's naming, and the circulator's multi-root veto
	// keeps the composed predicate false until the authority settles.
	// Topology churn rebuilds it in place, except for the removal of a
	// non-tree edge, which cannot change it (graph.Forest.TreeEdge).
	ref graph.Forest

	// RefRebuilds counts O(n+m) reference-naming rebuilds triggered
	// by topology deltas (see TopologyChanged).
	RefRebuilds int64

	// wit is the incremental legitimacy witness (program.Witness):
	// a violation counter over the per-node clauses of Legitimate,
	// conjoined with the substrate's own witness (see witness.go).
	wit    program.ViolationCounter
	subWit program.Witness // type-asserted from sub; nil ⇒ fall back to sub.Legitimate

	subCorrupt program.NodeCorruptor // type-asserted from sub; nil ⇒ CorruptNode leaves sub alone
	subTopo    program.TopologyAware // type-asserted from sub; nil ⇒ deltas leave sub alone
}

// Compile-time interface compliance.
var (
	_ program.Protocol      = (*DFTNO)(nil)
	_ program.Legitimacy    = (*DFTNO)(nil)
	_ program.Snapshotter   = (*DFTNO)(nil)
	_ program.Randomizer    = (*DFTNO)(nil)
	_ program.SpaceMeter    = (*DFTNO)(nil)
	_ program.ActionNamer   = (*DFTNO)(nil)
	_ program.Influencer    = (*DFTNO)(nil)
	_ program.TopologyAware = (*DFTNO)(nil)
	_ program.Rootable      = (*DFTNO)(nil)
	_ token.Events          = (*DFTNO)(nil)
)

// NewDFTNO layers the orientation protocol over sub. modulus is N,
// the agreed bound on the network size (0 means exactly n). The
// substrate must be in a legitimate configuration (freshly constructed
// substrates are). The constructor derives the reference naming — the
// deterministic port-order DFS preorder the legitimate circulation
// assigns — directly from the graph, in O(n+m) with no substrate
// snapshots, and initialises the orientation variables to the
// stabilized values for the substrate's current position, so the
// composed system starts in a legitimate configuration — use Randomize
// or Restore for adversarial starts.
func NewDFTNO(g *graph.Graph, sub TokenSubstrate, modulus int) (*DFTNO, error) {
	if modulus == 0 {
		modulus = g.N()
	}
	if modulus < g.N() {
		return nil, fmt.Errorf("core: modulus %d below node count %d", modulus, g.N())
	}
	if !sub.Legitimate() {
		return nil, errors.New("core: token substrate must start legitimate")
	}
	d := &DFTNO{
		g:       g,
		sub:     sub,
		modulus: modulus,
		roots:   program.NewRoots(g, sub.Root()),
		eta:     make([]int, g.N()),
		max:     make([]int, g.N()),
		pi:      make([][]int, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		d.pi[v] = make([]int, g.Ports(graph.NodeID(v)))
	}

	// Reference naming: the legitimate circulation is the
	// deterministic port-order DFS from the root (the Substrate
	// contract), whose Nodelabel macro assigns exactly the preorder
	// index; a node's Max when it finishes is the last name handed out
	// in its subtree, by the contiguity of preorder.
	d.ref.DFS(g, d.roots.AppendLive)

	// Stabilized orientation state for the substrate's position.
	for v := range d.eta {
		d.eta[v] = d.ref.Name(graph.NodeID(v))
	}
	for v := 0; v < g.N(); v++ {
		id := graph.NodeID(v)
		d.max[v] = d.expectedMax(id)
		for port, q := range g.Neighbors(id) {
			if q == graph.None {
				continue
			}
			d.pi[v][port] = sod.ChordalLabel(d.eta[v], d.eta[q], d.modulus)
		}
	}

	d.subWit, _ = sub.(program.Witness)
	d.subCorrupt, _ = sub.(program.NodeCorruptor)
	d.subTopo, _ = sub.(program.TopologyAware)
	sub.SetObserver(d)

	// Construction-time contract validation (the deleted recording
	// phase caught these by driving the substrate; validate cheaply
	// instead of silently mis-deriving a naming the substrate never
	// realizes). Full traversal-order conformance — the circulation
	// visits in port-order DFS — is the Substrate contract, pinned by
	// the naming tests; here we catch the loud violations in O(n·Δ):
	// a legitimate configuration must enable exactly one move (the
	// circulation is deterministic), and the substrate's reported
	// position must satisfy the cycle invariant we just initialised
	// the orientation variables from.
	enabled := 0
	var ebuf []program.ActionID
	for v := 0; v < g.N(); v++ {
		ebuf = d.Enabled(graph.NodeID(v), ebuf[:0])
		enabled += len(ebuf)
	}
	if enabled != 1 {
		return nil, fmt.Errorf("core: substrate %q has %d enabled moves in a legitimate configuration, want 1 (deterministic circulation)", sub.Name(), enabled)
	}
	if !d.Legitimate() {
		return nil, fmt.Errorf("core: substrate %q reports a traversal position inconsistent with the port-order DFS circulation contract", sub.Name())
	}
	return d, nil
}

// BindRootAuthority implements program.Rootable: the reference naming
// re-anchors at the authority's effective roots (one preorder per
// rooted component), and the binding is forwarded to the substrate so
// the circulation itself restarts from the same roots. A nil binding
// anchors both at the fixed root alone.
func (d *DFTNO) BindRootAuthority(a program.RootAuthority) {
	if r, ok := d.sub.(program.Rootable); ok {
		r.BindRootAuthority(a)
	}
	d.roots.Bind(a)
	d.rebuild()
}

// rebuild regrows the reference naming from the live roots,
// invalidating the witness counters when it changed: their clauses
// compare η and Max against it at every node.
func (d *DFTNO) rebuild() {
	if d.ref.DFS(d.g, d.roots.AppendLive) {
		d.wit.Invalidate()
	}
}

// ensureRef re-derives the reference naming when the root set has
// moved since the last derivation. Root flips rewrite no node state,
// so nothing else invalidates the witness counters — every legitimacy
// decision funnels through here first.
func (d *DFTNO) ensureRef() {
	if !d.roots.Moved() {
		return
	}
	d.RefRebuilds++
	d.rebuild()
}

// expectedMax returns the Max value the ideal execution holds at v
// given the substrate's current traversal position: a finished subtree
// has folded all its names (ref.Last), a node exploring child q has
// folded everything named before q (ref.Name(q)−1), and a freshly
// visited node only its own name.
func (d *DFTNO) expectedMax(v graph.NodeID) int {
	if d.sub.Finished(v) {
		return d.ref.Last(v)
	}
	if q := d.sub.Pointing(v); q != graph.None {
		return d.ref.Name(q) - 1
	}
	return d.ref.Name(v)
}

// Name implements program.Protocol.
func (d *DFTNO) Name() string { return "dftno/" + d.sub.Name() }

// Graph implements program.Protocol.
func (d *DFTNO) Graph() *graph.Graph { return d.g }

// Modulus returns N.
func (d *DFTNO) Modulus() int { return d.modulus }

// Substrate returns the underlying token layer.
func (d *DFTNO) Substrate() TokenSubstrate { return d.sub }

// Names returns a copy of the current η vector.
func (d *DFTNO) Names() []int {
	out := make([]int, len(d.eta))
	copy(out, d.eta)
	return out
}

// ReferenceNames returns a copy of the stabilized naming (the DFS
// preorder of the network in port order).
func (d *DFTNO) ReferenceNames() []int {
	out := make([]int, d.g.N())
	for v := range out {
		out[v] = d.ref.Name(graph.NodeID(v))
	}
	return out
}

// MaxOf returns node v's Max variable (exposed for tests and traces).
func (d *DFTNO) MaxOf(v graph.NodeID) int { return d.max[v] }

// Labeling exports the current orientation.
func (d *DFTNO) Labeling() *sod.Labeling {
	l := &sod.Labeling{
		Modulus: d.modulus,
		Names:   d.Names(),
		Labels:  make([][]int, d.g.N()),
	}
	for v := range d.pi {
		l.Labels[v] = make([]int, len(d.pi[v]))
		copy(l.Labels[v], d.pi[v])
	}
	return l
}

// OnRootStart implements token.Events: the root names itself 0 when
// it generates the token (Nodelabel_r).
func (d *DFTNO) OnRootStart(r graph.NodeID) {
	d.eta[r] = 0
	d.max[r] = 0
}

// OnForward implements token.Events: Nodelabel_p — consult the parent
// for the current maximum and take the next name.
func (d *DFTNO) OnForward(v, parent graph.NodeID) {
	d.eta[v] = d.max[parent] + 1
	d.max[v] = d.eta[v]
}

// OnBacktrack implements token.Events: UpdateMax_p — adopt the
// returning descendant's maximum.
func (d *DFTNO) OnBacktrack(v, child graph.NodeID) {
	d.max[v] = d.max[child]
}

// invalidEdgeLabel is the paper's InvalidEdgelabel(p) predicate. Hole
// ports have no edge to label and are skipped; their stale π entries
// are dead state the next labeling of a re-added edge overwrites.
func (d *DFTNO) invalidEdgeLabel(v graph.NodeID) bool {
	for port, q := range d.g.Neighbors(v) {
		if q == graph.None {
			continue
		}
		if d.pi[v][port] != sod.ChordalLabel(d.eta[v], d.eta[q], d.modulus) {
			return true
		}
	}
	return false
}

// Enabled implements program.Protocol: the substrate's actions plus
// the edge-labeling rule ¬Forward ∧ ¬Backtrack ∧ InvalidEdgelabel.
func (d *DFTNO) Enabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	buf = d.sub.Enabled(v, buf)
	if !d.sub.HasToken(v) && d.invalidEdgeLabel(v) {
		buf = append(buf, ActEdgeLabel)
	}
	return buf
}

// Execute implements program.Protocol.
func (d *DFTNO) Execute(v graph.NodeID, a program.ActionID) bool {
	if a == ActEdgeLabel {
		if d.sub.HasToken(v) || !d.invalidEdgeLabel(v) {
			return false
		}
		for port, q := range d.g.Neighbors(v) {
			if q == graph.None {
				continue
			}
			d.pi[v][port] = sod.ChordalLabel(d.eta[v], d.eta[q], d.modulus)
		}
		return true
	}
	return d.sub.Execute(v, a)
}

// Influence implements program.Influencer, documenting the locality
// audit for the composed protocol: substrate statements write only v's
// substrate variables, and the event hooks they trigger (Nodelabel,
// UpdateMax) write only η_v and Max_v — OnForward reads the parent's
// Max but writes at v, OnBacktrack reads the child's Max but writes at
// v. The edge-labeling statement writes only π_v. Every composed guard
// at a node reads one hop at most: the substrate's own guards and
// HasToken are 1-hop by the substrate's declaration, and
// InvalidEdgelabel compares π_v against the η of v and its
// neighbours. A move at v therefore changes guards in v's closed
// 1-hop neighbourhood only.
func (d *DFTNO) Influence(v graph.NodeID, _ program.ActionID, buf []graph.NodeID) []graph.NodeID {
	return program.InfluenceClosedNeighborhood(d.g, v, buf)
}

// ActionName implements program.ActionNamer.
func (d *DFTNO) ActionName(a program.ActionID) string {
	if a == ActEdgeLabel {
		return "EdgeLabel"
	}
	return program.ActionName(d.sub, a)
}

// positionOK is the recomputable cycle invariant at v: the Max value
// matches what the ideal execution holds at the substrate's current
// traversal position, and the position itself is one the deterministic
// port-order circulation visits. Concretely:
//
//   - a finished node holds ref.Last(v), and none of its neighbours is a
//     round behind (a DFS subtree only closes after every neighbour of
//     its nodes has been visited);
//   - an unfinished node with a retracted pointer was just visited and
//     holds its own name;
//   - an unfinished node exploring (or arrowing to) child q holds
//     ref.Name(q)−1, and every neighbour on an earlier port is already
//     visited (the circulation advances in port order).
//
// Each clause reads one hop, which is what lets the witness maintain
// it from the scheduler's dirty sets. Together with η ≡ ref.Name,
// SP2 labels and L_TC, the clauses hold exactly on the configurations
// the ideal system visits forever after stabilization — the predicate
// the recorded-cycle snapshot map (O(n²) bytes) used to decide by
// lookup. TestDFTNOLegitimacyMatchesRecordedCycle pins the equality
// against a recorded reference over exhaustively explored reachable
// spaces, and the model-checking suite re-proves closure+convergence.
func (d *DFTNO) positionOK(v graph.NodeID) bool {
	if d.sub.Finished(v) {
		if d.max[v] != d.ref.Last(v) {
			return false
		}
		for _, w := range d.g.Neighbors(v) {
			if w != graph.None && d.sub.Behind(w, v) {
				return false
			}
		}
		return true
	}
	q := d.sub.Pointing(v)
	if q == graph.None {
		return d.max[v] == d.ref.Name(v)
	}
	if d.max[v] != d.ref.Name(q)-1 {
		return false
	}
	for _, w := range d.g.Neighbors(v) {
		if w == q {
			break
		}
		if w == graph.None {
			continue
		}
		if !d.sub.SameRound(w, v) {
			return false
		}
	}
	return true
}

// Legitimate implements program.Legitimacy: L_NO = L_TC ∧ SP1 ∧ SP2.
// Concretely, the substrate must be legitimate, the names must equal
// the reference naming, the Max vector and traversal position must
// satisfy the cycle invariant (positionOK), and every edge label must
// satisfy SP2 — precisely the configurations the ideal system visits
// forever after stabilization.
//
// Orphan nodes — live but unreachable from the root, reference name −1 —
// cannot satisfy the naming clause (η is drawn from 0..N−1), and the
// circulation never reaches them to assign one; their condition is
// SP2 consistency alone: labels derived from whatever names the
// partition froze. That is exactly the terminal state of an orphan
// component (the substrate quiesces there per its own predicate, then
// EdgeLabel fires at most once per node), so closure holds.
func (d *DFTNO) Legitimate() bool {
	d.ensureRef()
	if !d.sub.Legitimate() {
		return false
	}
	// Cheap necessary condition first: the predicate runs after every
	// step in RunUntilLegitimate loops without a witness, and the name
	// comparison fails fast. Dead nodes are outside the predicate.
	for v := range graph.NodeID(d.g.N()) {
		if d.g.Alive(v) && d.ref.Name(v) >= 0 && d.eta[v] != d.ref.Name(v) {
			return false
		}
	}
	for v := range graph.NodeID(d.g.N()) {
		if d.dftnoViolates(v) {
			return false
		}
	}
	return true
}

// TopologyChanged implements program.TopologyAware for the composed
// stack: forward the delta to the substrate first (its hook clamps the
// circulation state and contributes its ball), grow the per-node
// arrays if the id space grew, rebind the port-indexed π array of
// every touched node to its current port space, and maintain the
// reference naming — incrementally where the delta provably cannot
// change the port-order DFS (a removed non-tree edge), by an O(n+m)
// rebuild otherwise, counted in RefRebuilds. A rebuild that actually
// changed the naming invalidates the witness counters (their clauses
// compare η and Max against the reference names at every node), which
// lazily re-arm on the next legitimacy query. The returned ball adds
// the touched set's closed neighbourhoods: all of DFTNO's own guards
// read one hop, like the substrate's.
func (d *DFTNO) TopologyChanged(dlt graph.Delta, buf []graph.NodeID) []graph.NodeID {
	if d.subTopo != nil {
		buf = d.subTopo.TopologyChanged(dlt, buf)
	}
	if n := d.g.N(); len(d.eta) < n {
		for len(d.eta) < n {
			d.eta = append(d.eta, 0)
			d.max = append(d.max, 0)
			d.pi = append(d.pi, nil)
		}
		if d.modulus < n {
			// The agreed size bound N must cover the grown network;
			// every SP2 label is stale under the new modulus, which the
			// edge-labeling action rewrites during re-stabilization.
			d.modulus = n
		}
		d.wit.Invalidate()
	}
	for _, v := range dlt.Touched {
		for len(d.pi[v]) < d.g.Ports(v) {
			d.pi[v] = append(d.pi[v], 0)
		}
	}
	if dlt.Kind != graph.EdgeRemoved || d.ref.TreeEdge(dlt.U, dlt.V) {
		d.RefRebuilds++
		d.roots.Moved() // the rebuild reads the current root set
		d.rebuild()
	}
	for _, v := range dlt.Touched {
		buf = program.InfluenceClosedNeighborhood(d.g, v, buf)
	}
	return buf
}

// Snapshot implements program.Snapshotter: the substrate snapshot
// followed by η, Max and π.
func (d *DFTNO) Snapshot() []byte {
	w := program.NewSnapshotWriter(16 + 8*d.g.N())
	w.Layer(d.sub)
	for v := 0; v < d.g.N(); v++ {
		w.Int(d.eta[v])
		w.Int(d.max[v])
		for _, l := range d.pi[v] {
			w.Int(l)
		}
	}
	return w.Bytes()
}

// Restore implements program.Snapshotter.
func (d *DFTNO) Restore(data []byte) error {
	r := program.NewSnapshotReader(data)
	r.Layer(d.sub)
	for v := 0; v < d.g.N(); v++ {
		d.eta[v] = r.Int()
		d.max[v] = r.Int()
		for port := range d.pi[v] {
			d.pi[v][port] = r.Int()
		}
	}
	return r.Err()
}

// CorruptNode implements program.NodeCorruptor: v's orientation
// variables and its substrate state take arbitrary values of their
// domains (η, Max ∈ 0..N−1 and π entries ∈ 0..N−1, per §3.2.3).
// Out-of-domain values also heal — every variable is overwritten
// within one clean round — which TestDFTNOHealsOutOfDomainValues
// exercises separately.
func (d *DFTNO) CorruptNode(v graph.NodeID, rng *rand.Rand) {
	if d.subCorrupt != nil {
		d.subCorrupt.CorruptNode(v, rng)
	}
	d.eta[v] = rng.Intn(d.modulus)
	d.max[v] = rng.Intn(d.modulus)
	for port := range d.pi[v] {
		d.pi[v][port] = rng.Intn(d.modulus)
	}
}

// Randomize implements program.Randomizer: the substrate and every
// orientation variable take arbitrary values of their domains.
func (d *DFTNO) Randomize(rng *rand.Rand) {
	for v := 0; v < d.g.N(); v++ {
		d.CorruptNode(graph.NodeID(v), rng)
	}
}

// OrientationBits returns the orientation layer's own footprint at v:
// η and Max (⌈log₂N⌉ each) plus Δ_v edge labels (⌈log₂N⌉ each).
func (d *DFTNO) OrientationBits(v graph.NodeID) int {
	lg := program.Log2Ceil(d.modulus)
	return 2*lg + d.g.Degree(v)*lg
}

// StateBits implements program.SpaceMeter: orientation plus substrate.
func (d *DFTNO) StateBits(v graph.NodeID) int {
	bits := d.OrientationBits(v)
	if m, ok := d.sub.(program.SpaceMeter); ok {
		bits += m.StateBits(v)
	}
	return bits
}
