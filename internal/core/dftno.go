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
	roots   program.Roots  // where the reference naming is anchored, and its staleness key
	rootBuf []graph.NodeID // rebuildReference's reused list of the live roots

	eta []int
	max []int
	pi  [][]int

	// refNames is the stable naming: the preorder of the
	// deterministic port-order DFS from the root, which is exactly
	// the order the legitimate circulation visits (and names) the
	// nodes. maxSub[v] is the largest reference name in v's DFS
	// subtree — refNames[v] + |subtree(v)| − 1, preorder numbering a
	// subtree contiguously. Together with the substrate's traversal
	// introspection they decide the legitimacy predicate
	// L_NO = L_TC ∧ SP1 ∧ SP2 (§3.2) as a per-node position
	// invariant (see positionOK), replacing the recorded-cycle
	// snapshot map that previously cost O(n²) bytes.
	//
	// refParent is the DFS-tree parent vector backing the incremental
	// maintenance of refNames under topology churn: removing an edge
	// that is NOT a tree edge of the reference DFS cannot change the
	// traversal (when the walk scans that port the far endpoint is
	// already visited either way), so TopologyChanged skips the
	// O(n+m) rebuild in that case. RefRebuilds counts the rebuilds
	// that did run, so churn experiments can prove they are rare
	// relative to steps. A rebuild rewrites all three arrays in place
	// (see rebuildReference): refParent doubles as the walk's visited
	// marks and stack, so a rebuild allocates nothing unless the id
	// space grew.
	refNames  []int
	maxSub    []int
	refParent []graph.NodeID

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
	// index; a node's maxSub is the last name handed out when it
	// finishes, by the contiguity of preorder.
	d.rebuildReference()

	// Stabilized orientation state for the substrate's position.
	copy(d.eta, d.refNames)
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

// unvisited marks, in refParent, a node the reference walk has not
// reached yet; it differs from graph.None, the parent of a root.
const unvisited graph.NodeID = graph.None - 1

// rebuildReference recomputes the reference naming (refNames, maxSub,
// refParent) from the current graph and reports whether the naming
// (refNames or maxSub) changed. It walks in place, in O(n+m) time with
// no scratch beyond the reused root list: refParent is reset to
// unvisited and then serves as both the visited marks and the DFS
// stack, every live root's walk shares those marks, and each write to
// refNames and maxSub compares against the value it overwrites, which
// gives the verdict. The arrays are reallocated, at exactly n, only
// when the id space grew. Nodes no walk reaches (dead, or live but cut
// off mid-partition) get refName −1, which no live reachable node ever
// holds, so stale positions compare unequal.
func (d *DFTNO) rebuildReference() bool {
	n := d.g.N()
	changed := len(d.refNames) != n
	if changed {
		d.refNames = make([]int, n)
		d.maxSub = make([]int, n)
		d.refParent = make([]graph.NodeID, n)
	}
	for v := range d.refParent {
		d.refParent[v] = unvisited
	}
	// Per-component preorders from every live root, each naming its
	// component 0..|C|−1 — consistent with OnRootStart naming a root 0
	// when it regenerates the token. A second root inside an
	// already-walked component (transient multi-root configuration)
	// keeps the first walk's naming; the circulator's own multi-root
	// veto keeps the composed predicate false until the authority
	// settles on one root per component.
	d.rootBuf = d.roots.AppendLive(d.rootBuf[:0])
	for _, r := range d.rootBuf {
		if d.refParent[r] == unvisited {
			changed = d.walkReference(r) || changed
		}
	}
	for v, p := range d.refParent {
		if p != unvisited {
			continue
		}
		d.refParent[v] = graph.None
		if d.refNames[v] != -1 || d.maxSub[v] != -1 {
			d.refNames[v], d.maxSub[v] = -1, -1
			changed = true
		}
	}
	return changed
}

// walkReference names root's component by the port-order DFS preorder
// from root, writing refNames, maxSub and refParent in place, and
// reports whether any refNames or maxSub entry changed. The stack is
// the refParent chain: backtracking from c resumes its parent p at the
// port after c's, and maxSub[c] is the last name handed out when c
// finishes (preorder numbers a subtree contiguously).
func (d *DFTNO) walkReference(root graph.NodeID) bool {
	changed := d.refNames[root] != 0
	d.refNames[root] = 0
	d.refParent[root] = graph.None
	next := 1
	v, port := root, 0
	for {
		if port < d.g.Ports(v) {
			q := d.g.Neighbor(v, port)
			port++
			if q != graph.None && d.refParent[q] == unvisited {
				d.refParent[q] = v
				if d.refNames[q] != next {
					d.refNames[q] = next
					changed = true
				}
				next++
				v, port = q, 0
			}
			continue
		}
		if d.maxSub[v] != next-1 {
			d.maxSub[v] = next - 1
			changed = true
		}
		p := d.refParent[v]
		if p == graph.None {
			return changed
		}
		port, _ = d.g.PortOf(p, v)
		v, port = p, port+1
	}
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
	if d.rebuildReference() {
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
	if d.rebuildReference() {
		d.wit.Invalidate()
	}
}

// expectedMax returns the Max value the ideal execution holds at v
// given the substrate's current traversal position: a finished subtree
// has folded all its names (maxSub), a node exploring child q has
// folded everything named before q (refNames[q]−1), and a freshly
// visited node only its own name.
func (d *DFTNO) expectedMax(v graph.NodeID) int {
	if d.sub.Finished(v) {
		return d.maxSub[v]
	}
	if q := d.sub.Pointing(v); q != graph.None {
		return d.refNames[q] - 1
	}
	return d.refNames[v]
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
	out := make([]int, len(d.refNames))
	copy(out, d.refNames)
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
//   - a finished node holds maxSub[v], and none of its neighbours is a
//     round behind (a DFS subtree only closes after every neighbour of
//     its nodes has been visited);
//   - an unfinished node with a retracted pointer was just visited and
//     holds its own name;
//   - an unfinished node exploring (or arrowing to) child q holds
//     refNames[q]−1, and every neighbour on an earlier port is already
//     visited (the circulation advances in port order).
//
// Each clause reads one hop, which is what lets the witness maintain
// it from the scheduler's dirty sets. Together with eta ≡ refNames,
// SP2 labels and L_TC, the clauses hold exactly on the configurations
// the ideal system visits forever after stabilization — the predicate
// the recorded-cycle snapshot map (O(n²) bytes) used to decide by
// lookup. TestDFTNOLegitimacyMatchesRecordedCycle pins the equality
// against a recorded reference over exhaustively explored reachable
// spaces, and the model-checking suite re-proves closure+convergence.
func (d *DFTNO) positionOK(v graph.NodeID) bool {
	if d.sub.Finished(v) {
		if d.max[v] != d.maxSub[v] {
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
		return d.max[v] == d.refNames[v]
	}
	if d.max[v] != d.refNames[q]-1 {
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
// Orphan nodes — live but unreachable from the root, refName −1 —
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
	for v := 0; v < d.g.N(); v++ {
		if d.g.Alive(graph.NodeID(v)) && d.refNames[v] >= 0 && d.eta[v] != d.refNames[v] {
			return false
		}
	}
	for v := 0; v < d.g.N(); v++ {
		id := graph.NodeID(v)
		if !d.g.Alive(id) {
			continue
		}
		if d.refNames[v] < 0 {
			if d.invalidEdgeLabel(id) {
				return false
			}
			continue
		}
		if !d.positionOK(id) || d.invalidEdgeLabel(id) {
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
// compare η and Max against refNames/maxSub at every node), which
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
	rebuild := true
	if dlt.Kind == graph.EdgeRemoved {
		// Removing a non-tree edge of the reference DFS keeps the
		// traversal unchanged: parent(U)≠V and parent(V)≠U mean both
		// endpoints were first reached around this edge, so the walk
		// skipped its ports (far endpoint already visited) — exactly
		// what it does for the holes they became.
		if d.refParent[dlt.U] != dlt.V && d.refParent[dlt.V] != dlt.U {
			rebuild = false
		}
	}
	if rebuild {
		d.RefRebuilds++
		d.roots.Moved() // the rebuild reads the current root set
		if d.rebuildReference() {
			d.wit.Invalidate()
		}
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
