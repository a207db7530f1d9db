package program

import (
	"errors"
	"fmt"

	"netorient/internal/graph"
)

// ErrNoDaemon is returned by System methods when no daemon was set.
var ErrNoDaemon = errors.New("program: system has no daemon")

// actionStride is the per-node slot width of the enabled-action arena.
// Every protocol in this library exposes at most six simultaneously
// enabled actions per node; a node that exceeds the stride transparently
// falls back to a privately grown buffer (the three-index slice below
// caps capacity, so append reallocates instead of clobbering the next
// node's slot).
const actionStride = 8

// System drives one protocol under one daemon and accounts for moves
// and rounds. It is not safe for concurrent use.
//
// # Scheduling
//
// By default the System runs an event-driven incremental scheduler: it
// caches every node's enabled-action list and, after a move at v,
// re-evaluates guards only for the nodes the move can influence — v's
// closed 1-hop neighbourhood unless the protocol declares a wider set
// via the Influencer contract. The enabled set handed to the daemon is
// an indexable EnabledSet view over a Fenwick (binary indexed) tree of
// enabled bits, maintained with O(log n) work per enabledness flip, so
// a step costs O(Δ·log n) bookkeeping plus the daemon's own queries —
// there is no per-step candidate-slice rebuild, and a sampling daemon
// makes steps sublinear in the enabled count outright.
// NewSystemFullScan still provides the Θ(n)-scan seed runner as a
// differential-testing oracle. Both schedulers produce bit-identical
// executions: EnabledSet enumerates processors in ascending node
// order, exactly as a full scan does, so a deterministic (or seeded)
// daemon makes the same selections either way.
//
// The dirty-set invariant the incremental scheduler maintains: after
// every Step, the cached action list of every node equals what
// Protocol.Enabled would report on the current configuration. The
// invariant holds because guards read only locally-shared variables:
// any guard change is attributable to a fired move whose Influence set
// covers the changed node. Mutating the protocol's configuration
// behind the System's back (Restore, Randomize, CorruptNode) breaks
// the invariant; call Invalidate afterwards — or create a fresh System,
// or call ResetCounters, both of which invalidate implicitly.
//
// # Legitimacy
//
// RunUntilLegitimate consults the protocol's incremental legitimacy
// witness (the Witness contract) when one is available: the witness's
// violation counters are refreshed from the same dirty sets the guard
// cache uses, so the per-step legitimacy decision is O(1) instead of
// the O(n) Legitimate() scan. Witness state obeys the same invariant
// and the same Invalidate contract as the guard cache.
type System struct {
	proto  Protocol
	inf    Influencer // cached type assertion; nil ⇒ default 1-hop locality
	g      *graph.Graph
	daemon Daemon

	moves  int64
	steps  int64
	rounds int64

	fullScan bool

	// Incremental scheduler state (valid iff inited).
	inited  bool
	arena   []ActionID     // backing storage for acts, one stride per node
	acts    [][]ActionID   // per-node cached enabled-action lists
	enabled []bool         // enabled[v] ⇔ len(acts[v]) > 0
	count   int            // number of enabled nodes
	fen     []int32        // Fenwick tree over enabled bits, 1-indexed
	fenHigh int            // largest power of two ≤ n, for select queries
	dirty   []graph.NodeID // nodes to re-evaluate this step
	mark    []int64        // epoch stamps deduplicating dirty
	epoch   int64
	infBuf  []graph.NodeID

	// deltaBall is the influence ball the last ApplyDelta repaired
	// besides the delta's Touched set (see DeltaBall).
	deltaBall []graph.NodeID

	// Rank-query memo: the last At(i) answered, so the At/Actions pair
	// every daemon issues costs one Fenwick select, not two.
	memoIdx  int
	memoNode graph.NodeID

	// Round bookkeeping, incremental flavour: pending[v] holds the
	// processors that were enabled when the current round began and
	// have neither moved nor been seen disabled since.
	pending      []bool
	pendingCount int
	roundOpen    bool

	// Round bookkeeping, full-scan flavour (legacy map form, kept
	// untouched so the oracle stays byte-for-byte the seed algorithm).
	pendingMap map[graph.NodeID]bool

	// Armed incremental legitimacy witness (nil when disarmed); the
	// dirty-set refresh keeps it synchronised with the configuration.
	witness Witness

	// seenN is the node count the caches were sized for; ApplyDelta
	// appends fresh slots (amortised O(1) each) when a delta grew the
	// id space.
	seenN int

	// Reusable buffers.
	fullCands []Candidate
	selBuf    []ActionID

	// MoveHook, when non-nil, observes every executed move.
	MoveHook func(Move)
}

// NewSystem returns a System for proto under d, using the incremental
// enabled-set scheduler.
func NewSystem(proto Protocol, d Daemon) *System {
	inf, _ := proto.(Influencer)
	return &System{proto: proto, daemon: d, g: proto.Graph(), inf: inf, seenN: proto.Graph().N()}
}

// NewSystemFullScan returns a System that re-evaluates every node's
// guards on every step — the seed algorithm. It is asymptotically
// slower than NewSystem and exists as the reference oracle for
// differential tests and benchmarks.
func NewSystemFullScan(proto Protocol, d Daemon) *System {
	s := NewSystem(proto, d)
	s.fullScan = true
	return s
}

// Protocol returns the protocol under execution.
func (s *System) Protocol() Protocol { return s.proto }

// Moves returns the number of action executions so far.
func (s *System) Moves() int64 { return s.moves }

// Steps returns the number of daemon steps so far.
func (s *System) Steps() int64 { return s.steps }

// Rounds returns the number of completed rounds so far. A round is the
// minimal computation segment in which every processor that was
// continuously enabled since the segment began has executed a move or
// become disabled — the standard asynchronous time unit.
func (s *System) Rounds() int64 { return s.rounds }

// ResetCounters zeroes the move/step/round counters and restarts round
// tracking from the current configuration. Use it to measure the cost
// of a phase that starts "now" (e.g. orientation after the substrate
// has stabilized, as in §3.2.3). It also invalidates the cached
// enabled sets, so it is safe to call after mutating the protocol's
// configuration directly.
func (s *System) ResetCounters() {
	s.moves, s.steps, s.rounds = 0, 0, 0
	s.Invalidate()
}

// Invalidate discards the cached enabled sets, the armed legitimacy
// witness and the round-pending state (round tracking restarts from
// the current configuration at the next Step, in both scheduler
// modes). Call it after changing the protocol's configuration through
// any channel other than Step — Snapshotter.Restore,
// Randomizer.Randomize, NodeCorruptor.CorruptNode, or direct variable
// manipulation. The next Step (or Silent/EnabledCount) re-evaluates
// every guard once and resumes incremental maintenance from there; the
// next RunUntilLegitimate re-arms the witness from scratch.
func (s *System) Invalidate() {
	s.inited = false
	s.roundOpen = false
	s.pendingMap = nil
	s.witness = nil
	if s.pendingCount > 0 {
		for v := range s.pending {
			s.pending[v] = false
		}
		s.pendingCount = 0
	}
}

// ApplyDelta incorporates one topology mutation — already applied to
// the protocol's graph — into the running system, at O(deg·Δ) instead
// of the Θ(n) rescan Invalidate costs. It is the mutation's second
// half: mutate the graph, then immediately ApplyDelta the returned
// record on every System driving a protocol over that graph, before
// any other System method runs.
//
// The call first gives the protocol its TopologyChanged hook (once per
// System — a protocol driven by several Systems must only be repaired
// through one of them), which rebinds port-indexed state, clamps
// dangling references, and returns the delta's influence ball. The
// incremental scheduler then re-evaluates guards, Fenwick bits, round
// bookkeeping and witness counters for exactly the touched set plus
// that ball; the full-scan oracle, which has no guard cache, only
// discharges round-pending processors the delta disabled, so both
// schedulers remain bit-identical across interleaved topology events
// (the differential suite locksteps this).
//
// A protocol without the TopologyAware hook gets the default ball —
// the closed 1-hop neighbourhoods of the delta's Touched set — which
// is sound only for protocols whose guards and derived facts are
// 1-hop local and hole-tolerant; anything else should either implement
// the hook or use Invalidate. A delta that grew the node id space
// (AddNode past every dead slot) takes the append growth path: the
// per-node cache geometry is extended in place with capacity doubling
// (the Fenwick index is kept sized to a power-of-two capacity with a
// zero tail, so a grown leaf is one O(log n) flip, not a rebuild), the
// new node's guards join the delta's dirty set, and round tracking
// stays open — amortised O(1) per appended node, which is what lets a
// graph grow live to 10⁶–10⁷ nodes without Θ(n) per AddNode. Witnesses
// stay armed across ApplyDelta, except across growth (their per-node
// counters are sized to the old id space); a dropped witness lazily
// re-arms on the next legitimacy query. If the hook invalidated the
// protocol's counters they likewise re-arm lazily.
func (s *System) ApplyDelta(d graph.Delta) {
	if ta, ok := s.proto.(TopologyAware); ok {
		s.deltaBall = ta.TopologyChanged(d, s.deltaBall[:0])
	} else {
		s.deltaBall = s.deltaBall[:0]
		for _, u := range d.Touched {
			s.deltaBall = InfluenceClosedNeighborhood(s.g, u, s.deltaBall)
		}
	}
	if n := s.g.N(); n != s.seenN {
		// The id space grew. Append cache slots for the new ids (the
		// new nodes are isolated until their AddEdge deltas arrive, so
		// the touched set below covers every guard the growth can
		// change); the witness is dropped — its counters are per-node —
		// and re-arms on the next legitimacy query.
		if s.acts != nil {
			s.growCaches(n)
		}
		s.seenN = n
		s.witness = nil
	}
	if s.fullScan {
		// No guard cache to repair; the delta is a settle point for
		// round tracking, mirroring the dirty-set discharge below so
		// round accounting stays identical across schedulers.
		for v := range s.pendingMap {
			if !s.g.Alive(v) {
				delete(s.pendingMap, v)
				continue
			}
			s.selBuf = s.proto.Enabled(v, s.selBuf[:0])
			if len(s.selBuf) == 0 {
				delete(s.pendingMap, v)
			}
		}
		return
	}
	if !s.inited {
		// No guard cache to repair yet — the bootstrap scan will see
		// the new topology. But a witness armed before any step
		// (RunUntilLegitimate on an already-legitimate start) has no
		// dirty-set refresh to ride, so refresh its contributions for
		// the delta's ball here; otherwise its counters go stale and
		// the next legitimacy verdict is garbage.
		if s.witness != nil {
			for _, u := range d.Touched {
				s.witness.WitnessRefresh(u)
			}
			for _, u := range s.deltaBall {
				s.witness.WitnessRefresh(u)
			}
		}
		return
	}
	s.epoch++
	s.dirty = s.dirty[:0]
	for _, u := range d.Touched {
		s.markDirty(u)
	}
	for _, u := range s.deltaBall {
		s.markDirty(u)
	}
	s.refreshDirty()
}

// DeltaBall returns the influence ball the last ApplyDelta repaired:
// the protocol's TopologyChanged return, or the default closed 1-hop
// neighbourhoods of the touched set. d.Touched ∪ DeltaBall() is every
// node whose state or guards the call may have changed. The slice may
// hold duplicates, is read-only, and stays valid until the next
// ApplyDelta.
func (s *System) DeltaBall() []graph.NodeID { return s.deltaBall }

// ensureInit performs the one full guard scan the incremental scheduler
// needs to bootstrap its cache.
func (s *System) ensureInit() {
	if s.inited {
		return
	}
	n := s.g.N()
	if s.acts == nil {
		s.arena = make([]ActionID, n*actionStride)
		s.acts = make([][]ActionID, n)
		for v := 0; v < n; v++ {
			s.acts[v] = s.arena[v*actionStride : v*actionStride : (v+1)*actionStride]
		}
		s.enabled = make([]bool, n)
		s.mark = make([]int64, n)
		s.pending = make([]bool, n)
		// The Fenwick index is sized to a power-of-two capacity ≥ n
		// with an all-zero tail, so an AddNode that grows the id space
		// extends it with one leaf flip instead of a rebuild
		// (growCaches re-doubles the capacity when the tail runs out).
		s.fenHigh = 1
		for s.fenHigh < n {
			s.fenHigh <<= 1
		}
		s.fen = make([]int32, s.fenHigh+1)
	}
	for i := range s.fen {
		s.fen[i] = 0
	}
	s.count = 0
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		if s.g.Alive(id) {
			s.acts[v] = s.proto.Enabled(id, s.acts[v][:0])
		} else {
			// Dead processors execute nothing; the scheduler owns this
			// rule so protocols keep their guards liveness-oblivious.
			s.acts[v] = s.acts[v][:0]
		}
		on := len(s.acts[v]) > 0
		s.enabled[v] = on
		if on {
			s.fen[v+1] = 1
			s.count++
		}
	}
	// Linear Fenwick build from the leaf bits (the capacity tail past
	// n holds zero leaves and stays zero).
	for i := 1; i < len(s.fen); i++ {
		if j := i + (i & -i); j < len(s.fen) {
			s.fen[j] += s.fen[i]
		}
	}
	s.memoIdx = -1
	s.inited = true
}

// growCaches extends the per-node cache geometry from len(acts) to n
// slots, in place: the arena doubles its capacity when exhausted
// (rebasing every cached list so steady-state guard refreshes stay
// allocation-free), per-node arrays append zero slots, and the Fenwick
// index re-doubles only when n outgrows its power-of-two capacity —
// otherwise the new leaves land in its existing zero tail for free.
// Amortised over a growth campaign this is O(1) per appended node,
// versus the Θ(n) invalidate-and-rescan the seed runner paid. The new
// slots start disabled; the caller marks the grown ids dirty so their
// guards are evaluated before the next selection.
func (s *System) growCaches(n int) {
	old := len(s.acts)
	if need := n * actionStride; need > cap(s.arena) {
		newCap := 2 * cap(s.arena)
		if newCap < need {
			newCap = need
		}
		arena := make([]ActionID, newCap)
		for v := 0; v < old; v++ {
			slot := arena[v*actionStride : v*actionStride : (v+1)*actionStride]
			s.acts[v] = append(slot, s.acts[v]...)
		}
		s.arena = arena
	}
	for v := old; v < n; v++ {
		s.acts = append(s.acts, s.arena[v*actionStride:v*actionStride:(v+1)*actionStride])
		s.enabled = append(s.enabled, false)
		s.mark = append(s.mark, 0)
		s.pending = append(s.pending, false)
	}
	if n > s.fenHigh {
		capN := s.fenHigh
		if capN < 1 {
			capN = 1
		}
		for capN < n {
			capN <<= 1
		}
		fen := make([]int32, capN+1)
		for v := 0; v < old; v++ {
			if s.enabled[v] {
				fen[v+1] = 1
			}
		}
		for i := 1; i < len(fen); i++ {
			if j := i + (i & -i); j < len(fen) {
				fen[j] += fen[i]
			}
		}
		s.fen, s.fenHigh = fen, capN
	}
}

// fenFlip adds delta (±1) to node v's enabled bit.
func (s *System) fenFlip(v graph.NodeID, delta int32) {
	for i := int(v) + 1; i < len(s.fen); i += i & -i {
		s.fen[i] += delta
	}
}

// selectEnabled returns the node with exactly k enabled nodes before
// it — the k-th (0-based) element of the ascending enabled set — in
// O(log n) by binary lifting over the Fenwick tree. k must be in
// [0, count).
func (s *System) selectEnabled(k int) graph.NodeID {
	idx := 0
	rem := int32(k + 1)
	for bit := s.fenHigh; bit > 0; bit >>= 1 {
		if next := idx + bit; next < len(s.fen) && s.fen[next] < rem {
			rem -= s.fen[next]
			idx = next
		}
	}
	return graph.NodeID(idx)
}

// at resolves rank i to a node id, memoising the last query so the
// At+Actions pair daemons issue per index costs one lookup. A request
// for the next rank scans the bitmap for the successor instead of
// re-descending the Fenwick tree: enabled sets are dense exactly when
// daemons enumerate them front to back (synchronous/distributed
// scheduling mid-stabilization), so the gap is short and a full
// enumeration costs O(n + count) like the pre-EnabledSet candidate
// slice did; the scan is bounded so sparse sets still fall back to
// the O(log n) select.
func (s *System) at(i int) graph.NodeID {
	if i == s.memoIdx {
		return s.memoNode
	}
	if s.memoIdx >= 0 && i == s.memoIdx+1 {
		for v, limit := int(s.memoNode)+1, int(s.memoNode)+64; v < len(s.enabled) && v <= limit; v++ {
			if s.enabled[v] {
				s.memoIdx, s.memoNode = i, graph.NodeID(v)
				return s.memoNode
			}
		}
	}
	v := s.selectEnabled(i)
	s.memoIdx, s.memoNode = i, v
	return v
}

// incView is the incremental scheduler's EnabledSet: rank queries over
// the Fenwick index, O(1) membership from the enabled bitmap.
type incView struct{ s *System }

// Len implements EnabledSet.
func (w incView) Len() int { return w.s.count }

// At implements EnabledSet.
func (w incView) At(i int) graph.NodeID { return w.s.at(i) }

// Actions implements EnabledSet.
func (w incView) Actions(i int, buf []ActionID) []ActionID {
	return append(buf, w.s.acts[w.s.at(i)]...)
}

// Contains implements EnabledSet.
func (w incView) Contains(v graph.NodeID) bool { return w.s.enabled[v] }

// markDirty queues u for guard re-evaluation at the end of the step.
func (s *System) markDirty(u graph.NodeID) {
	if s.mark[u] != s.epoch {
		s.mark[u] = s.epoch
		s.dirty = append(s.dirty, u)
	}
}

// markInfluence queues every node whose guard the fired move (v, a)
// may have changed: the protocol's declared Influence set, or the
// closed 1-hop neighbourhood by default. v itself is always queued.
func (s *System) markInfluence(v graph.NodeID, a ActionID) {
	s.markDirty(v)
	if s.inf != nil {
		s.infBuf = s.inf.Influence(v, a, s.infBuf[:0])
		for _, u := range s.infBuf {
			s.markDirty(u)
		}
		return
	}
	for _, q := range s.g.Neighbors(v) {
		if q != graph.None {
			s.markDirty(q)
		}
	}
}

// beginRoundIncremental records the currently enabled processors as the
// new round's pending set. Sparse sets walk the Fenwick index
// (O(count·log n) — steady-state rounds close every few steps, so a
// Θ(n) sweep per round would dominate stepping); dense sets sweep the
// bitmap instead (O(n) beats count root-to-leaf descents once count
// is a fair fraction of n).
func (s *System) beginRoundIncremental() {
	if s.count*8 >= len(s.enabled) {
		for v, on := range s.enabled {
			if on {
				s.pending[v] = true
			}
		}
	} else {
		for i := 0; i < s.count; i++ {
			s.pending[s.selectEnabled(i)] = true
		}
	}
	s.pendingCount = s.count
	s.roundOpen = true
}

// Step performs one daemon step: hand the enabled set to the daemon,
// execute its selection in order with guard re-validation, then
// restore the dirty-set invariant. It returns the number of moves that
// fired; 0 with a nil error means the configuration is terminal (no
// enabled actions).
func (s *System) Step() (int, error) {
	if s.daemon == nil {
		return 0, ErrNoDaemon
	}
	if s.fullScan {
		return s.stepFullScan()
	}
	s.ensureInit()
	if !s.roundOpen {
		s.beginRoundIncremental()
	}
	if s.count == 0 {
		return 0, nil
	}
	s.memoIdx = -1
	selected := s.daemon.Select(incView{s})
	if len(selected) == 0 {
		return 0, fmt.Errorf("program: daemon %q selected no move from %d candidates", s.daemon.Name(), s.count)
	}
	s.epoch++
	s.dirty = s.dirty[:0]
	fired := 0
	for _, mv := range selected {
		if s.proto.Execute(mv.Node, mv.Action) {
			fired++
			s.moves++
			if s.pending[mv.Node] {
				s.pending[mv.Node] = false
				s.pendingCount--
			}
			s.markInfluence(mv.Node, mv.Action)
			if s.MoveHook != nil {
				s.MoveHook(mv)
			}
		}
	}
	s.steps++
	s.refreshDirty()
	if s.pendingCount == 0 {
		s.rounds++
		s.beginRoundIncremental()
	}
	return fired, nil
}

// refreshDirty re-evaluates the guards of every dirty node, updates the
// cached action lists and the Fenwick index, discharges pending
// processors seen disabled, and refreshes the armed witness's per-node
// contributions — O(log n) per enabledness flip, no global rebuild.
func (s *System) refreshDirty() {
	if len(s.dirty) == 0 {
		return
	}
	for _, v := range s.dirty {
		was := s.enabled[v]
		if s.g.Alive(v) {
			s.acts[v] = s.proto.Enabled(v, s.acts[v][:0])
		} else {
			s.acts[v] = s.acts[v][:0]
		}
		now := len(s.acts[v]) > 0
		if now != was {
			s.enabled[v] = now
			if now {
				s.fenFlip(v, 1)
				s.count++
			} else {
				s.fenFlip(v, -1)
				s.count--
			}
		}
		if !now && s.pending[v] {
			s.pending[v] = false
			s.pendingCount--
		}
		if s.witness != nil {
			s.witness.WitnessRefresh(v)
		}
	}
	s.memoIdx = -1
}

// enabledCandidates gathers the enabled processors into s.fullCands by
// scanning every node — the legacy full-scan path.
func (s *System) enabledCandidates() []Candidate {
	s.fullCands = s.fullCands[:0]
	for v := 0; v < s.g.N(); v++ {
		if !s.g.Alive(graph.NodeID(v)) {
			continue
		}
		s.selBuf = s.proto.Enabled(graph.NodeID(v), s.selBuf[:0])
		if len(s.selBuf) == 0 {
			continue
		}
		actions := make([]ActionID, len(s.selBuf))
		copy(actions, s.selBuf)
		s.fullCands = append(s.fullCands, Candidate{Node: graph.NodeID(v), Actions: actions})
	}
	return s.fullCands
}

// stepFullScan is the seed algorithm: gather enabled processors by
// scanning all guards, let the daemon select, execute with guard
// re-validation, then rescan the pending set.
func (s *System) stepFullScan() (int, error) {
	cands := s.enabledCandidates()
	if s.pendingMap == nil {
		s.beginRoundFullScan(cands)
	}
	if len(cands) == 0 {
		return 0, nil
	}
	selected := s.daemon.Select(CandidateSet(cands))
	if len(selected) == 0 {
		return 0, fmt.Errorf("program: daemon %q selected no move from %d candidates", s.daemon.Name(), len(cands))
	}
	fired := 0
	for _, mv := range selected {
		if s.proto.Execute(mv.Node, mv.Action) {
			fired++
			s.moves++
			delete(s.pendingMap, mv.Node)
			if s.MoveHook != nil {
				s.MoveHook(mv)
			}
		}
	}
	s.steps++
	s.settleRoundFullScan()
	return fired, nil
}

// beginRoundFullScan records the processors enabled at round start.
func (s *System) beginRoundFullScan(cands []Candidate) {
	s.pendingMap = make(map[graph.NodeID]bool, len(cands))
	for _, c := range cands {
		s.pendingMap[c.Node] = true
	}
}

// settleRoundFullScan discharges pending processors that are now
// disabled and closes the round when none remain.
func (s *System) settleRoundFullScan() {
	for v := range s.pendingMap {
		if !s.g.Alive(v) {
			delete(s.pendingMap, v)
			continue
		}
		s.selBuf = s.proto.Enabled(v, s.selBuf[:0])
		if len(s.selBuf) == 0 {
			delete(s.pendingMap, v)
		}
	}
	if len(s.pendingMap) == 0 {
		s.rounds++
		s.beginRoundFullScan(s.enabledCandidates())
	}
}

// RunResult reports the outcome of a Run* call.
type RunResult struct {
	Converged bool
	Moves     int64
	Steps     int64
	Rounds    int64
}

// RunUntil steps the system until pred returns true, the configuration
// becomes terminal, or maxSteps steps have been taken. pred is checked
// on the initial configuration and after every step.
func (s *System) RunUntil(pred func() bool, maxSteps int64) (RunResult, error) {
	return runUntil(s, pred, maxSteps)
}

// RunUntilLegitimate runs until the protocol's legitimacy predicate
// holds. The protocol must implement Legitimacy. If the protocol also
// implements Witness (and the system is the incremental scheduler),
// the per-step decision comes from the incrementally-maintained
// witness in O(1) instead of an O(n) Legitimate() scan; the two are
// equivalent by the Witness contract (CheckWitness audits it).
func (s *System) RunUntilLegitimate(maxSteps int64) (RunResult, error) {
	leg, ok := s.proto.(Legitimacy)
	if !ok {
		return RunResult{}, fmt.Errorf("program: protocol %q has no legitimacy predicate", s.proto.Name())
	}
	if w, ok := s.proto.(Witness); ok && !s.fullScan {
		s.armWitness(w)
		return s.RunUntil(w.WitnessLegitimate, maxSteps)
	}
	return s.RunUntil(leg.Legitimate, maxSteps)
}

// armWitness (re)synchronises w with the current configuration and
// registers it for dirty-set refreshes. Idempotent while armed.
func (s *System) armWitness(w Witness) {
	if s.witness == nil {
		w.WitnessReset()
		s.witness = w
	}
}

// HoldsFor verifies closure empirically: it steps the system extra
// times and reports whether the predicate held after every step. The
// system must currently satisfy pred.
func (s *System) HoldsFor(pred func() bool, steps int64) (bool, error) {
	return holdsFor(s, pred, steps)
}

// Silent reports whether no action is enabled anywhere.
func (s *System) Silent() bool {
	return s.EnabledCount() == 0
}

// EnabledCount returns the number of currently enabled processors.
func (s *System) EnabledCount() int {
	if s.fullScan {
		return len(s.enabledCandidates())
	}
	s.ensureInit()
	return s.count
}

// EnabledNodes appends the ids of all currently enabled processors in
// ascending order and returns the extended slice.
func (s *System) EnabledNodes(buf []graph.NodeID) []graph.NodeID {
	if s.fullScan {
		for _, c := range s.enabledCandidates() {
			buf = append(buf, c.Node)
		}
		return buf
	}
	s.ensureInit()
	for v, on := range s.enabled {
		if on {
			buf = append(buf, graph.NodeID(v))
		}
	}
	return buf
}
