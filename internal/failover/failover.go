// Package failover layers self-stabilizing disconnection detection
// and root failover over any rootable protocol stack.
//
// The paper's algorithms assume one distinguished root processor. A
// partition strands components without one (the token circulation
// quiesces, the trees freeze), and a root crash strands the whole
// network. This package closes that gap with a composable wrapper
// running two classic self-stabilizing layers alongside the wrapped
// stack:
//
//   - Detection: every node maintains a bounded root-distance
//     (dist ∈ 0..N) plus a root-epoch it inherits down the distance
//     gradient. The fixed root anchors (0, RootEpoch); everyone else
//     wants min-neighbour+1. In a component without the live root the
//     distances count up to the bound N (they cannot exceed the
//     component size when a root is present), so Orphaned(v) ≔
//     dist_v = N converges to the ground truth "v's component does
//     not contain the live fixed root" — a purely local predicate of
//     v's own variable.
//
//   - Election: every node maintains a leader candidate (lid, ldist),
//     the flooding max-id election of apps.ElectComponentRoots recast
//     as a guarded-command layer. Own id at distance 0 is always a
//     candidate; a neighbour's strictly larger lid is adopted at
//     ldist+1 while ldist+1 < N, so stale ids of dead leaders decay by
//     counting up (the same bound as detection). At the fixpoint lid_v
//     is the largest live id in v's component. WeightElection switches
//     the contest to the lexicographic (priority, degree, id) key so
//     operator-pinned or highly connected nodes win acting-root duty;
//     candidates advertise their own key and adopters copy it, keeping
//     guards one-hop local.
//
// An orphaned node that elects itself — Orphaned(v) ∧ lid_v = v — is
// an acting root. The wrapper exposes the verdict to the wrapped stack
// through program.RootAuthority: the stack re-anchors its circulation
// or tree at the acting root and converges to component-local
// legitimacy (Legitimate). On heal the distance gradient from
// the true root floods back, Orphaned flips off, the acting root
// abdicates, and the stack re-converges on the merged component —
// acting-root state washes out because IsRoot is derived, never
// stored.
package failover

import (
	"math/rand"

	"netorient/internal/graph"
	"netorient/internal/program"
)

// Inner is what the wrapper needs from the wrapped stack: the
// guarded-command behaviour, a legitimacy predicate, and the
// root-authority binding point.
type Inner interface {
	program.Protocol
	program.Legitimacy
	program.Rootable
}

// The wrapper's own actions, offset above every stack's id space
// (substrates use small ids, orientation layers 1<<20).
const (
	// ActDetect: (dist, epoch) := the root-distance rule.
	ActDetect program.ActionID = 1<<21 + iota
	// ActElect: (lid, ldist) := the max-id flooding rule.
	ActElect
)

// Protocol is the composed stack: detection + election + the wrapped
// protocol, bound to this wrapper as its root authority. The embedded
// Layer composes the wrapper's own layers with the wrapped stack; its
// witness counter runs over OwnViolates.
type Protocol struct {
	program.Layer

	g    *graph.Graph
	in   Inner
	root graph.NodeID

	dist  []int
	epoch []uint64
	lid   []int
	ldist []int

	// Weighted acting-root election (WeightElection): candidates
	// compete on the lexicographic key (priority, degree, id) instead
	// of bare id. prio holds the operator pins; lprio/ldeg carry the
	// *advertised* priority and degree of the candidate in lid — the
	// origin re-derives its own advertisement from its true priority
	// and degree, adopters copy it verbatim, so election guards still
	// read one hop only (a remote degree lookup would break the
	// incremental scheduler's locality contract). Stale or fabricated
	// advertisements decay exactly like stale ids: they are never
	// re-anchored at distance 0, so adoption counts their ldist up to
	// the bound. Off by default — the bare max-id path is bit-identical
	// to the unweighted wrapper.
	weighted bool
	prio     []int64
	lprio    []int64
	ldeg     []int

	// rootsVer is the program.RootAuthority staleness key: bumped on
	// every IsRoot verdict flip an Execute causes, and conservatively
	// on every node-liveness delta (which can flip verdicts without
	// any Execute: the fixed root dying, the bound N growing).
	rootsVer uint64

	// LeaderFlaps counts acting-root promotions (IsRoot flipping true
	// at a non-fixed-root node); flaps records them per node so churn
	// reports can aggregate flap counts per component.
	LeaderFlaps int64
	flaps       []int64
}

// Compile-time interface compliance.
var (
	_ program.Protocol      = (*Protocol)(nil)
	_ program.Legitimacy    = (*Protocol)(nil)
	_ program.Snapshotter   = (*Protocol)(nil)
	_ program.Randomizer    = (*Protocol)(nil)
	_ program.NodeCorruptor = (*Protocol)(nil)
	_ program.SpaceMeter    = (*Protocol)(nil)
	_ program.ActionNamer   = (*Protocol)(nil)
	_ program.Influencer    = (*Protocol)(nil)
	_ program.TopologyAware = (*Protocol)(nil)
	_ program.Witness       = (*Protocol)(nil)
	_ program.RootAuthority = (*Protocol)(nil)
	_ program.LayerOwn      = (*Protocol)(nil)
)

// New wraps inner, anchored at the fixed root. The wrapper's own
// variables are initialised to their fixpoint for the current graph
// (distances up from the bound, candidates from own ids), so wrapping
// a legitimate stack on a connected graph yields a legitimate composed
// system; use Randomize for adversarial starts. Binding the authority
// is the last step — on a connected graph the effective root set is
// exactly {root}, so the stack's reference structures are unchanged.
func New(g *graph.Graph, inner Inner, root graph.NodeID) *Protocol {
	n := g.N()
	p := &Protocol{
		g:     g,
		in:    inner,
		root:  root,
		dist:  make([]int, n),
		epoch: make([]uint64, n),
		lid:   make([]int, n),
		ldist: make([]int, n),
		prio:  make([]int64, n),
		lprio: make([]int64, n),
		ldeg:  make([]int, n),
		flaps: make([]int64, n),
	}
	for v := 0; v < n; v++ {
		p.dist[v] = p.cap()
		p.lid[v] = v
	}
	p.stabilizeOwn()
	p.Layer = program.NewLayer(g, "failover", inner, ActDetect, p)
	inner.BindRootAuthority(p)
	return p
}

// WeightElection switches the acting-root election to the weighted
// (priority, degree, id) key and re-stabilizes the wrapper layers to
// the new fixpoint synchronously. pins maps nodes to operator
// priorities (unpinned nodes compete at priority 0, so with a nil map
// the highest-degree node wins, ties broken by id). A configuration
// call like New, not a protocol move: invoke it before handing the
// stack to an engine, or follow it with the engine's Invalidate.
func (p *Protocol) WeightElection(pins map[graph.NodeID]int64) {
	p.weighted = true
	for v := range p.prio {
		p.prio[v] = 0
	}
	for v, w := range pins {
		if int(v) < len(p.prio) {
			p.prio[v] = w
		}
	}
	p.stabilizeOwn()
	p.rootsVer++
	p.InvalidateWitness()
}

// Weighted reports whether the weighted election is active.
func (p *Protocol) Weighted() bool { return p.weighted }

// Priority returns node v's operator pin (0 unless pinned).
func (p *Protocol) Priority(v graph.NodeID) int64 { return p.prio[v] }

// stabilizeOwn runs synchronous sweeps of both layers' assignment
// rules to their fixpoint — O(diam) sweeps from the constructor's
// monotone start, O(N) worst case.
func (p *Protocol) stabilizeOwn() {
	for changed := true; changed; {
		changed = false
		for v := 0; v < p.g.N(); v++ {
			id := graph.NodeID(v)
			if !p.g.Alive(id) {
				continue
			}
			if d, e := p.desiredDetect(id); d != p.dist[v] || e != p.epoch[v] {
				p.dist[v], p.epoch[v] = d, e
				changed = true
			}
			if p.weighted {
				l, lp, lg, ld := p.desiredElectW(id)
				if l != p.lid[v] || lp != p.lprio[v] || lg != p.ldeg[v] || ld != p.ldist[v] {
					p.lid[v], p.lprio[v], p.ldeg[v], p.ldist[v] = l, lp, lg, ld
					changed = true
				}
			} else if l, ld := p.desiredElect(id); l != p.lid[v] || ld != p.ldist[v] {
				p.lid[v], p.ldist[v] = l, ld
				changed = true
			}
		}
	}
}

// cap is the agreed network-size bound N the counters count up to: no
// node in a component containing the live root is N or more hops from
// it, so dist = cap certifies orphanhood once detection settles.
func (p *Protocol) cap() int { return p.g.N() }

// clampDist maps a (possibly corrupted) stored distance into 0..cap.
func (p *Protocol) clampDist(d int) int {
	if d < 0 {
		return 0
	}
	if c := p.cap(); d > c {
		return c
	}
	return d
}

// desiredDetect is the detection rule at v: the live fixed root
// anchors (0, its liveness epoch); everyone else takes the smallest
// live-neighbour distance plus one — inheriting that neighbour's epoch
// — or saturates at the bound.
func (p *Protocol) desiredDetect(v graph.NodeID) (int, uint64) {
	if v == p.root {
		return 0, p.g.RootEpoch(v)
	}
	c := p.cap()
	m, me := c, uint64(0)
	for _, q := range p.g.Neighbors(v) {
		if q == graph.None || !p.g.Alive(q) {
			continue
		}
		if dq := p.clampDist(p.dist[q]); dq < m {
			m, me = dq, p.epoch[q]
		}
	}
	if m+1 < c {
		return m + 1, me
	}
	return c, 0
}

// desiredElect is the election rule at v: own id at distance 0 always
// competes; a neighbour's strictly larger candidate wins at ldist+1
// while that stays below the bound (stale ids of dead leaders decay by
// counting up); among equal candidates the shortest distance wins.
func (p *Protocol) desiredElect(v graph.NodeID) (int, int) {
	best, bd := int(v), 0
	c := p.cap()
	for _, q := range p.g.Neighbors(v) {
		if q == graph.None || !p.g.Alive(q) {
			continue
		}
		lq, dq := p.lid[q], p.clampDist(p.ldist[q])+1
		if dq >= c {
			continue
		}
		if lq > best || (lq == best && dq < bd) {
			best, bd = lq, dq
		}
	}
	return best, bd
}

// keyLess orders weighted-election keys lexicographically:
// (priority, degree, id), larger wins.
func keyLess(pa int64, da, ia int, pb int64, db, ib int) bool {
	if pa != pb {
		return pa < pb
	}
	if da != db {
		return da < db
	}
	return ia < ib
}

// desiredElectW is the weighted election rule at v: own candidacy
// advertises v's true (priority, degree, id) at distance 0; a
// neighbour's strictly larger advertised key is adopted verbatim at
// ldist+1 while that stays below the bound. Among equal keys the
// shortest distance wins. Fabricated self-advertisements (lid = v with
// a wrong key) are repaired directly by the origin's base case; every
// other stale advertisement decays by the same count-to-the-bound
// argument as bare max-id.
func (p *Protocol) desiredElectW(v graph.NodeID) (int, int64, int, int) {
	best, bp, bg, bd := int(v), p.prio[v], p.g.Degree(v), 0
	c := p.cap()
	for _, q := range p.g.Neighbors(v) {
		if q == graph.None || !p.g.Alive(q) {
			continue
		}
		dq := p.clampDist(p.ldist[q]) + 1
		if dq >= c {
			continue
		}
		lq, pq, gq := p.lid[q], p.lprio[q], p.ldeg[q]
		if keyLess(bp, bg, best, pq, gq, lq) ||
			(lq == best && pq == bp && gq == bg && dq < bd) {
			best, bp, bg, bd = lq, pq, gq, dq
		}
	}
	return best, bp, bg, bd
}

// Orphaned reports node v's own verdict on whether its component has
// lost the fixed root: its bounded distance counter has saturated. A
// function of v's own variable only, so a flip influences guards no
// further than the wrapper's declared balls.
func (p *Protocol) Orphaned(v graph.NodeID) bool { return p.clampDist(p.dist[v]) >= p.cap() }

// IsRoot implements program.RootAuthority: the live fixed root, or an
// orphaned node that elected itself.
func (p *Protocol) IsRoot(v graph.NodeID) bool {
	if !p.g.Alive(v) {
		return false
	}
	return v == p.root || (p.Orphaned(v) && p.lid[v] == int(v))
}

// RootsVersion implements program.RootAuthority.
func (p *Protocol) RootsVersion() uint64 { return p.rootsVer }

// Root returns the fixed root the wrapper is anchored at.
func (p *Protocol) Root() graph.NodeID { return p.root }

// Inner returns the wrapped stack.
func (p *Protocol) Inner() Inner { return p.in }

// ActingRoots returns the current effective roots in ascending order.
func (p *Protocol) ActingRoots() []graph.NodeID {
	var out []graph.NodeID
	for v := 0; v < p.g.N(); v++ {
		if p.IsRoot(graph.NodeID(v)) {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// FlapCount returns how many times node v was promoted to acting
// root (telemetry for churn reports; not protocol state).
func (p *Protocol) FlapCount(v graph.NodeID) int64 { return p.flaps[v] }

// OrphanTruth is the ground truth Orphaned converges to: v is live
// and its component does not contain the live fixed root.
func (p *Protocol) OrphanTruth(v graph.NodeID) bool {
	if !p.g.Alive(v) {
		return false
	}
	return !p.g.Alive(p.root) || p.g.ComponentOf(v) != p.g.ComponentOf(p.root)
}

// DetectionAccurate reports whether every live node's Orphaned verdict
// agrees with graph truth — the differential audit's settle predicate.
func (p *Protocol) DetectionAccurate() bool {
	for v := 0; v < p.g.N(); v++ {
		id := graph.NodeID(v)
		if p.g.Alive(id) && p.Orphaned(id) != p.OrphanTruth(id) {
			return false
		}
	}
	return true
}

// OwnEnabled implements program.LayerOwn.
func (p *Protocol) OwnEnabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	if !p.g.Alive(v) {
		return buf
	}
	if d, e := p.desiredDetect(v); d != p.dist[v] || e != p.epoch[v] {
		buf = append(buf, ActDetect)
	}
	if p.weighted {
		l, lp, lg, ld := p.desiredElectW(v)
		if l != p.lid[v] || lp != p.lprio[v] || lg != p.ldeg[v] || ld != p.ldist[v] {
			buf = append(buf, ActElect)
		}
	} else if l, ld := p.desiredElect(v); l != p.lid[v] || ld != p.ldist[v] {
		buf = append(buf, ActElect)
	}
	return buf
}

// OwnExecute implements program.LayerOwn. A wrapper move that flips
// v's IsRoot verdict bumps the authority version (the wrapped stack's
// reference structures re-derive lazily on their next legitimacy
// query) and records the flap.
func (p *Protocol) OwnExecute(v graph.NodeID, a program.ActionID) bool {
	switch a {
	case ActDetect:
		d, e := p.desiredDetect(v)
		if d == p.dist[v] && e == p.epoch[v] {
			return false
		}
		pre := p.IsRoot(v)
		p.dist[v], p.epoch[v] = d, e
		p.noteFlip(v, pre)
		return true
	case ActElect:
		if p.weighted {
			l, lp, lg, ld := p.desiredElectW(v)
			if l == p.lid[v] && lp == p.lprio[v] && lg == p.ldeg[v] && ld == p.ldist[v] {
				return false
			}
			pre := p.IsRoot(v)
			p.lid[v], p.lprio[v], p.ldeg[v], p.ldist[v] = l, lp, lg, ld
			p.noteFlip(v, pre)
			return true
		}
		l, ld := p.desiredElect(v)
		if l == p.lid[v] && ld == p.ldist[v] {
			return false
		}
		pre := p.IsRoot(v)
		p.lid[v], p.ldist[v] = l, ld
		p.noteFlip(v, pre)
		return true
	}
	return false
}

// noteFlip bumps the authority version when v's verdict changed from
// pre, counting promotions of non-fixed-root nodes as leader flaps.
func (p *Protocol) noteFlip(v graph.NodeID, pre bool) {
	post := p.IsRoot(v)
	if post == pre {
		return
	}
	p.rootsVer++
	if post && v != p.root {
		p.LeaderFlaps++
		p.flaps[v]++
	}
}

// Influence implements program.Influencer. The wrapper's own moves
// write only v's (dist, epoch, lid, ldist), read one hop away by
// detection/election guards — but they can also flip IsRoot(v), which
// the wrapped stack's guards consult through substrate functions that
// read a neighbour's derived parent or token position. The radius-2
// ball covers both: guard holders one hop from any reader of v's
// verdict. It is reported as a closed walk, repeats included, which
// needs no scratch in concurrent workers. Inner moves delegate to the
// stack's own declaration (they never write the wrapper's variables).
func (p *Protocol) Influence(v graph.NodeID, a program.ActionID, buf []graph.NodeID) []graph.NodeID {
	if a >= ActDetect {
		return program.InfluenceWalk(p.g, v, 2, buf)
	}
	return p.InnerInfluence(v, a, buf)
}

// LocalityRadius implements program.LocalityRadius for the sharded
// parallel stepper: the wrapper's radius-2 influence balls (above) and
// the inner stack's reads through substrate functions are both covered
// by two hops, taking the maximum of 2 and the stack's own
// declaration.
func (p *Protocol) LocalityRadius() int {
	r := 2
	if ir := program.ProtocolRadius(p.in); ir > r {
		r = ir
	}
	return r
}

// OwnActionName implements program.LayerOwn.
func (p *Protocol) OwnActionName(a program.ActionID) string {
	switch a {
	case ActDetect:
		return "Detect"
	case ActElect:
		return "Elect"
	}
	return ""
}

// OwnFresh implements program.LayerOwn: the wrapper derives nothing
// from the root set it decides.
func (p *Protocol) OwnFresh() {}

// OwnViolates implements program.LayerOwn: the wrapper's per-node
// clause, a live node whose detection or election variable disagrees
// with its rule. Reads v's closed 1-hop neighbourhood only. The
// composed Legitimate — the wrapper layers at their fixpoint and the
// wrapped stack legitimate under the authority's verdicts — is then
// exactly per-component local legitimacy anchored at the acting roots:
// every component, rooted at the fixed root or at its acting root, has
// locally converged, and detection agrees with graph truth (settled
// detection is truthful by the counting bound). The wrapper's verdict
// short-circuits the witness: while detection or election is still
// converging the wrapped stack's witness re-arm is not paid (root
// flips keep invalidating its reference structures).
func (p *Protocol) OwnViolates(v graph.NodeID) bool {
	if !p.g.Alive(v) {
		return false
	}
	if d, e := p.desiredDetect(v); d != p.dist[v] || e != p.epoch[v] {
		return true
	}
	if p.weighted {
		l, lp, lg, ld := p.desiredElectW(v)
		return l != p.lid[v] || lp != p.lprio[v] || lg != p.ldeg[v] || ld != p.ldist[v]
	}
	l, ld := p.desiredElect(v)
	return l != p.lid[v] || ld != p.ldist[v]
}

// OwnGrow implements program.LayerOwn: grow node-indexed arrays if
// the id space grew, before the wrapped stack's hook runs, because it
// may query the authority (IsRoot) at the new ids. Growth raises the
// bound N, so it bumps the authority version and invalidates the
// wrapper's witness (its clauses read the bound).
func (p *Protocol) OwnGrow(d graph.Delta) bool {
	n := p.g.N()
	grew := len(p.dist) < n
	if grew {
		for len(p.dist) < n {
			p.dist = append(p.dist, 0)
			p.epoch = append(p.epoch, 0)
			p.lid = append(p.lid, len(p.lid))
			p.ldist = append(p.ldist, 0)
			p.prio = append(p.prio, 0)
			p.lprio = append(p.lprio, 0)
			p.ldeg = append(p.ldeg, 0)
			p.flaps = append(p.flaps, 0)
		}
		p.rootsVer++ // the bound N grew: saturated counters are no longer saturated
		p.InvalidateWitness()
	}
	return grew
}

// OwnRepair implements program.LayerOwn, after the wrapped stack's
// hook: it conservatively treats every node-liveness delta as a
// potential verdict flip — the fixed root dying or reviving, a
// RootEpoch bump — by bumping the authority version and invalidating
// the wrapper's witness (its clauses read the root's epoch). The ball
// is the radius-2 walk of each touched node, matching the Influence
// declaration, except on growth: the guards read the bound N, so the
// ball is then every node.
func (p *Protocol) OwnRepair(d graph.Delta, grew bool, buf []graph.NodeID) []graph.NodeID {
	if d.Kind == graph.NodeAdded || d.Kind == graph.NodeRemoved {
		p.rootsVer++
		p.InvalidateWitness()
	}
	if grew {
		// The wrapper's guards read the bound N, so a guard anywhere
		// may have changed, not only near the touched set.
		for v := range graph.NodeID(p.g.N()) {
			buf = append(buf, v)
		}
		return buf
	}
	for _, v := range d.Touched {
		buf = program.InfluenceWalk(p.g, v, 2, buf)
	}
	return buf
}

// OwnSnapshot implements program.LayerOwn: the wrapper's per-node
// variables after the wrapped stack's snapshot. Telemetry (flap
// counts, the authority version) is not state and is excluded, keeping
// lockstep snapshot comparisons meaningful across systems with
// different rebuild histories.
func (p *Protocol) OwnSnapshot(w program.SnapshotWriter) program.SnapshotWriter {
	for v := 0; v < p.g.N(); v++ {
		w.Int(p.dist[v])
		w.Uint(p.epoch[v])
		w.Int(p.lid[v])
		w.Int(p.ldist[v])
		w.Int(int(p.lprio[v]))
		w.Int(p.ldeg[v])
	}
	return w
}

// OwnRestore implements program.LayerOwn. Restored state may hold any
// verdict pattern, so a successful restore bumps the authority version.
func (p *Protocol) OwnRestore(r program.SnapshotReader) program.SnapshotReader {
	for v := 0; v < p.g.N(); v++ {
		p.dist[v] = r.Int()
		p.epoch[v] = r.Uint()
		p.lid[v] = r.Int()
		p.ldist[v] = r.Int()
		p.lprio[v] = int64(r.Int())
		p.ldeg[v] = r.Int()
	}
	if r.Err() == nil {
		p.rootsVer++
		p.InvalidateWitness()
	}
	return r
}

// OwnCorrupt implements program.LayerOwn: v's wrapper variables take
// arbitrary values of their domains (dist, ldist ∈ 0..N; lid, epoch
// over the id/epoch spaces) on top of the stack's corruption.
func (p *Protocol) OwnCorrupt(v graph.NodeID, rng *rand.Rand) {
	pre := p.IsRoot(v)
	p.dist[v] = rng.Intn(p.cap() + 1)
	p.epoch[v] = uint64(rng.Intn(4))
	p.lid[v] = rng.Intn(p.g.N())
	p.ldist[v] = rng.Intn(p.cap() + 1)
	if p.weighted {
		// Extra draws only in weighted mode, so bare-mode seeded
		// schedules (soak/churn replays) consume exactly four values
		// per corruption, unchanged.
		p.lprio[v] = int64(rng.Intn(5)) - 1
		p.ldeg[v] = rng.Intn(p.cap() + 1)
	}
	p.noteFlip(v, pre)
}

// OwnStateBits implements program.LayerOwn: two bounded counters, an
// id, and an epoch word per node on top of the stack.
func (p *Protocol) OwnStateBits(_ graph.NodeID) int {
	bits := 2*program.Log2Ceil(p.cap()+1) + program.Log2Ceil(p.g.N()) + 64
	if p.weighted {
		// Advertised candidate key: a priority word plus a degree
		// counter bounded by N.
		bits += 64 + program.Log2Ceil(p.cap()+1)
	}
	return bits
}
