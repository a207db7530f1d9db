package core

import (
	"errors"
	"fmt"
	"math/rand"

	"netorient/internal/graph"
	"netorient/internal/program"
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
// Δ_p·⌈log₂N⌉ bits, the paper's O(Δ×log N). The embedded Layer
// composes it with the substrate; its witness counter runs over
// OwnViolates.
type DFTNO struct {
	program.Layer
	orientation // η, π and N

	sub   TokenSubstrate
	roots program.Roots // where the reference naming is anchored, and its staleness key
	max   []int

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
	// by topology deltas and root-set moves (see OwnRepair, OwnFresh).
	RefRebuilds int64
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
	_ program.Witness       = (*DFTNO)(nil)
	_ program.LayerOwn      = (*DFTNO)(nil)
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
	o, err := newOrientation(g, modulus)
	if err != nil {
		return nil, err
	}
	if !sub.Legitimate() {
		return nil, errors.New("core: token substrate must start legitimate")
	}
	d := &DFTNO{
		orientation: o,
		sub:         sub,
		roots:       program.NewRoots(g, sub.Root()),
		max:         make([]int, g.N()),
	}
	d.Layer = program.NewLayer(g, "dftno", sub, ActEdgeLabel, d)

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
	for v := range graph.NodeID(g.N()) {
		d.max[v] = d.expectedMax(v)
		d.relabel(v)
	}
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
		d.InvalidateWitness()
	}
}

// OwnFresh implements program.LayerOwn: it re-derives the reference
// naming when the root set has moved since the last derivation. Root
// flips rewrite no node state, so nothing else invalidates the witness
// counters — every legitimacy decision funnels through here first.
func (d *DFTNO) OwnFresh() {
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

// Substrate returns the underlying token layer.
func (d *DFTNO) Substrate() TokenSubstrate { return d.sub }

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

// OwnEnabled implements program.LayerOwn: the edge-labeling rule
// ¬Forward ∧ ¬Backtrack ∧ InvalidEdgelabel, after the substrate's
// actions.
func (d *DFTNO) OwnEnabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	if !d.sub.HasToken(v) && d.invalidEdgeLabel(v) {
		buf = append(buf, ActEdgeLabel)
	}
	return buf
}

// OwnExecute implements program.LayerOwn.
func (d *DFTNO) OwnExecute(v graph.NodeID, a program.ActionID) bool {
	if a != ActEdgeLabel || d.sub.HasToken(v) || !d.invalidEdgeLabel(v) {
		return false
	}
	d.relabel(v)
	return true
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

// OwnActionName implements program.LayerOwn.
func (d *DFTNO) OwnActionName(a program.ActionID) string {
	if a == ActEdgeLabel {
		return "EdgeLabel"
	}
	return ""
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

// OwnViolates implements program.LayerOwn: DFTNO's per-node clause of
// L_NO = L_TC ∧ SP1 ∧ SP2, which the Layer conjoins with the
// substrate's legitimacy. Concretely, the name must equal the
// reference name, the Max value and traversal position must satisfy
// the cycle invariant (positionOK), and every edge label must satisfy
// SP2 — with the substrate legitimate, precisely the configurations
// the ideal system visits forever after stabilization. Dead nodes
// (topology churn) are outside the predicate.
//
// Orphan nodes — live but unreachable from the root, reference name −1 —
// cannot satisfy the naming clause (η is drawn from 0..N−1), and the
// circulation never reaches them to assign one; their condition is
// SP2 consistency alone: labels derived from whatever names the
// partition froze. That is exactly the terminal state of an orphan
// component (the substrate quiesces there per its own predicate, then
// EdgeLabel fires at most once per node), so closure holds. Deltas
// that change reachability rebuild the reference forest and invalidate
// the counter, so the orphan classification is never stale here.
func (d *DFTNO) OwnViolates(v graph.NodeID) bool {
	if !d.g.Alive(v) {
		return false
	}
	if d.ref.Name(v) < 0 {
		return d.invalidEdgeLabel(v)
	}
	return d.eta[v] != d.ref.Name(v) || !d.positionOK(v) || d.invalidEdgeLabel(v)
}

// OwnGrow implements program.LayerOwn: η, Max and π cover the grown
// id space (N rising with it) and the touched nodes' port spaces. A
// grown id space invalidates the witness counter.
func (d *DFTNO) OwnGrow(dlt graph.Delta) bool {
	grew := d.grow(dlt)
	if grew {
		for len(d.max) < len(d.eta) {
			d.max = append(d.max, 0)
		}
		d.InvalidateWitness()
	}
	return grew
}

// OwnRepair implements program.LayerOwn: it maintains the reference
// naming — incrementally where the delta provably cannot change the
// port-order DFS (a removed non-tree edge), by an O(n+m) rebuild
// otherwise, counted in RefRebuilds. A rebuild that actually changed
// the naming invalidates the witness counters (their clauses compare η
// and Max against the reference names at every node), which lazily
// re-arm on the next legitimacy query. The ball adds the touched set's
// closed neighbourhoods: all of DFTNO's own guards read one hop, like
// the substrate's.
func (d *DFTNO) OwnRepair(dlt graph.Delta, _ bool, buf []graph.NodeID) []graph.NodeID {
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

// OwnSnapshot implements program.LayerOwn: η, Max and π after the
// substrate snapshot.
func (d *DFTNO) OwnSnapshot(w program.SnapshotWriter) program.SnapshotWriter {
	for v := 0; v < d.g.N(); v++ {
		w.Int(d.eta[v])
		w.Int(d.max[v])
		for _, l := range d.pi[v] {
			w.Int(l)
		}
	}
	return w
}

// OwnRestore implements program.LayerOwn.
func (d *DFTNO) OwnRestore(r program.SnapshotReader) program.SnapshotReader {
	for v := 0; v < d.g.N(); v++ {
		d.eta[v] = r.Int()
		d.max[v] = r.Int()
		for port := range d.pi[v] {
			d.pi[v][port] = r.Int()
		}
	}
	return r
}

// OwnCorrupt implements program.LayerOwn: v's orientation variables
// take arbitrary values of their domains (η, Max ∈ 0..N−1 and π
// entries ∈ 0..N−1, per §3.2.3), after the substrate's draws.
// Out-of-domain values also heal — every variable is overwritten
// within one clean round — which TestDFTNOHealsOutOfDomainValues
// exercises separately.
func (d *DFTNO) OwnCorrupt(v graph.NodeID, rng *rand.Rand) {
	d.eta[v] = rng.Intn(d.modulus)
	d.max[v] = rng.Intn(d.modulus)
	for port := range d.pi[v] {
		d.pi[v][port] = rng.Intn(d.modulus)
	}
}

// OwnStateBits implements program.LayerOwn: the orientation layer's
// own footprint at v, η and Max (⌈log₂N⌉ each) plus Δ_v edge labels
// (⌈log₂N⌉ each).
func (d *DFTNO) OwnStateBits(v graph.NodeID) int {
	lg := program.Log2Ceil(d.modulus)
	return 2*lg + d.g.Degree(v)*lg
}
