package token

import (
	"netorient/internal/graph"
	"netorient/internal/program"
)

// This file implements program.Witness for Circulator: an O(1)
// decision procedure for Legitimate() maintained from per-node
// violation counters keyed by round value.
//
// # Why counters keyed by seq suffice
//
// Legitimate() walks the pointer chain from the root — a global check.
// The witness decomposes it into five per-node facts, each a function
// of the node's closed 1-hop neighbourhood (so a move refreshes them
// through its influence set), bucketed by the node's seq value so the
// O(1) decision can look up exactly the root's round rnd and rnd−1:
//
//	cnt[s] — nodes with seq = s.
//	a[s]   — nodes with seq = s that are not "clean finished"
//	         (¬done ∨ ptr ≠ −1).
//	b[s]   — non-root finished nodes with seq = s violating the
//	         visited shape: ptr ≠ −1, or the parent equations fail
//	         (par a neighbour, same round, lev = lev_par + 1).
//	d[s]   — non-root unfinished nodes with seq = s violating the
//	         chain-link equations: parent a same-round unfinished
//	         neighbour whose pointer designates the node, lev+1.
//	e[s]   — unfinished nodes with seq = s whose own pointer violates
//	         the head cases: retracted, or a same-round unfinished
//	         chain child (par/lev equations), or a same-round finished
//	         child awaiting advance, or a one-round-behind finished
//	         in-flight target.
//
// The counters are component-scoped: only nodes in a rooted component
// contribute to the (component, seq) buckets, and the population each
// bucket group is compared against is that component's ComponentSize,
// not NAlive. Nodes in a rootless component contribute a single bit —
// whether any action is enabled (orphanSilent) — tallied in
// orphanLoud; orphan legitimacy is orphanLoud = 0. Which bucket a node
// feeds depends on component labels, which a merge or split relabels
// WITHOUT touching the node, so the witness caches the CompVersion it
// was built against and rebuilds from scratch when the graph's moves
// past it. The root set's staleness key guards the same way (see
// program.Roots): the authority's RootsVersion, since an IsRoot flip
// re-anchors whole components without touching them, or with none
// bound the fixed root's liveness epoch — a die/revive pair between two
// queries restores Alive(root) to true while every cached
// classification is garbage, and CompVersion need not move when a
// degree-one root dies.
//
// Per rooted component with effective root r, rnd = seq_r: between
// rounds (done_r): legitimate ⇔ cnt[rnd] = n_comp ∧ a[rnd] = 0.
// Mid-round (¬done_r): legitimate ⇔ lev_r = 0 ∧ cnt[rnd]+cnt[rnd−1] =
// n_comp ∧ a[rnd−1] = 0 ∧ b[rnd] = d[rnd] = e[rnd] = 0. Overall
// legitimacy is the conjunction over rooted components, plus
// orphanLoud = 0, plus "no component owns two effective roots" (a
// post-heal transient; shared counts them).
//
// The mid-round equivalence with the chain walk (per component):
// d[rnd] = 0 makes every non-root unfinished node the unique
// pointer-designated child of an unfinished same-round parent with lev
// one higher, so parent chains descend in lev and terminate only at
// the effective root — the unfinished nodes form exactly one pointer
// chain from it, each node having at most one chain child because a
// pointer designates one neighbour (parents are neighbours, so the
// chain never leaves the component). e[rnd] = 0 pins every chain
// pointer to the walk's three head cases, b[rnd] = 0 is the off-chain
// visited clause, a[rnd−1] = 0 its unvisited clause, and the cnt
// equation its default clause. TestWitnessMatchesChainWalk audits the
// equivalence on random executions; the model-checking suites pin
// Legitimate() itself.
//
// The live-root list and the component→root table are the
// circulator's live and compRoot, which anchor builds at reset.
// Legitimate rebuilds them too: while the labels and the root set are
// those of the last reset it writes the same entries, and what it
// writes after a relabelling or a root flip only feeds contributions
// that the reset the next WitnessLegitimate then forces discards.
type circWitness struct {
	valid      bool
	tab        map[witKey]witCounters
	peak       int          // most entries tab has held since it was made
	fill       int          // entries the last reset put in tab
	node       []witContrib // cached contribution, for O(1) retraction
	orphanLoud int          // orphan nodes with an enabled action
	shared     int          // components owning several roots
	compVer    uint64       // graph.CompVersion the labels were read at
}

// witKey addresses one seq bucket of one rooted component.
type witKey struct {
	comp int
	seq  uint64
}

// witCounters aggregates one seq bucket.
type witCounters struct {
	cnt, a, b, d, e int
}

// witContrib is one node's cached contribution. A dead node (topology
// churn) contributes nothing: its frozen variables are outside every
// legitimacy clause, and the population count compares against the
// owning component's size, not N. An orphan node (live, component
// without an effective root) contributes only its loud bit.
type witContrib struct {
	comp       int // bucket component
	seq        uint64
	a, b, d, e bool
	dead       bool
	orphan     bool
	loud       bool // orphan only: some action is enabled
}

// Compile-time interface compliance.
var _ program.Witness = (*Circulator)(nil)

// parShapeOK reports the visited-node parent equations at v: par_v is
// a neighbour in the same round one level up. Reads one hop.
func (c *Circulator) parShapeOK(v graph.NodeID) bool {
	p := c.par[v]
	if p == graph.None || !c.g.HasEdge(v, p) {
		return false
	}
	return c.seq[p] == c.seq[v] && c.lev[v] == c.lev[p]+1
}

// chainLinkOK reports the chain-membership equations at a non-root
// unfinished v: its parent is an unfinished same-round neighbour whose
// pointer designates v, one level down. Reads one hop.
func (c *Circulator) chainLinkOK(v graph.NodeID) bool {
	p := c.par[v]
	if p == graph.None || !c.g.HasEdge(v, p) {
		return false
	}
	return !c.done[p] && c.seq[p] == c.seq[v] && c.lev[v] == c.lev[p]+1 && c.ptrTarget(p) == v
}

// headPtrOK reports the walk's pointer cases at an unfinished v: the
// pointer is retracted, continues the chain, awaits an advance past a
// finished child, or is an in-flight arrow to an unvisited node.
func (c *Circulator) headPtrOK(v graph.NodeID) bool {
	q := c.ptrTarget(v)
	if q == graph.None {
		return true
	}
	switch {
	case c.seq[q] == c.seq[v] && !c.done[q]:
		return c.par[q] == v && c.lev[q] == c.lev[v]+1
	case c.seq[q] == c.seq[v] && c.done[q]:
		return true
	case c.seq[q]+1 == c.seq[v] && c.done[q]:
		return true
	}
	return false
}

// witContribOf derives node v's contribution from its neighbourhood,
// its component label (read at the cached CompVersion) and the
// component's root (read at the cached root-set key).
func (c *Circulator) witContribOf(v graph.NodeID) witContrib {
	if !c.g.Alive(v) {
		return witContrib{dead: true}
	}
	comp := c.g.ComponentOf(v)
	root := c.rootOf(comp)
	if root == graph.None {
		// Rootless component — or a multi-root one, whose counters are
		// irrelevant because shared already vetoes.
		return witContrib{orphan: true, loud: !c.orphanSilent(v)}
	}
	w := witContrib{comp: comp, seq: c.seq[v]}
	w.a = !c.done[v] || c.ptr[v] != -1
	if v != root {
		if c.done[v] {
			w.b = c.ptr[v] != -1 || !c.parShapeOK(v)
		} else {
			w.d = !c.chainLinkOK(v)
		}
	}
	if !c.done[v] {
		w.e = !c.headPtrOK(v)
	}
	return w
}

// witApply adds (dir=+1) or retracts (dir=−1) a contribution.
func (c *Circulator) witApply(w witContrib, dir int) {
	if w.dead {
		return
	}
	if w.orphan {
		if w.loud {
			c.wit.orphanLoud += dir
		}
		return
	}
	key := witKey{comp: w.comp, seq: w.seq}
	k := c.wit.tab[key]
	k.cnt += dir
	if w.a {
		k.a += dir
	}
	if w.b {
		k.b += dir
	}
	if w.d {
		k.d += dir
	}
	if w.e {
		k.e += dir
	}
	if k == (witCounters{}) {
		delete(c.wit.tab, key) // keep the table at O(live rounds), not O(history)
	} else {
		c.wit.tab[key] = k
		c.wit.peak = max(c.wit.peak, len(c.wit.tab))
	}
}

// WitnessReset implements program.Witness.
func (c *Circulator) WitnessReset() {
	if c.wit == nil {
		c.wit = &circWitness{}
	}
	if len(c.wit.node) < c.g.N() {
		c.wit.node = make([]witContrib, c.g.N())
	}
	// A reset reuses the table: clearing a map keeps its buckets. So
	// that one randomized start does not pin a bucket per node for good,
	// a table that once held far more entries than the last reset put in
	// it is made afresh.
	if c.wit.tab == nil || c.wit.peak > 2*c.wit.fill+8 {
		c.wit.tab = make(map[witKey]witCounters, 4)
		c.wit.peak = 0
	}
	clear(c.wit.tab)
	c.wit.orphanLoud = 0
	c.wit.compVer = c.g.CompVersion()
	c.roots.Moved() // the reset reads the current root set
	c.wit.shared = c.anchor()
	for v := 0; v < c.g.N(); v++ {
		w := c.witContribOf(graph.NodeID(v))
		c.wit.node[v] = w
		c.witApply(w, 1)
	}
	c.wit.fill = len(c.wit.tab)
	c.wit.valid = true
}

// WitnessRefresh implements program.Witness.
func (c *Circulator) WitnessRefresh(v graph.NodeID) {
	if c.wit == nil || !c.wit.valid {
		return
	}
	w := c.witContribOf(v)
	if w == c.wit.node[v] {
		return
	}
	c.witApply(c.wit.node[v], -1)
	c.wit.node[v] = w
	c.witApply(w, 1)
}

// WitnessLegitimate implements program.Witness, deciding Legitimate()
// from the counters in O(components). A merge or split relabels
// components beyond any Touched set, silently moving nodes between the
// buckets and the orphan tally, so a CompVersion mismatch forces a
// rebuild before the counters are trusted. So does any change to the
// root set (program.Roots.Moved).
func (c *Circulator) WitnessLegitimate() bool {
	if c.wit == nil || !c.wit.valid || c.wit.compVer != c.g.CompVersion() || c.roots.Moved() {
		c.WitnessReset()
	}
	if c.wit.orphanLoud != 0 || c.wit.shared != 0 {
		return false
	}
	for _, r := range c.live {
		if !c.witCompLegitimate(c.g.ComponentOf(r), r) {
			return false
		}
	}
	return true
}

// witCompLegitimate decides the clauses of component comp, whose root
// is r, from its bucket group.
func (c *Circulator) witCompLegitimate(comp int, r graph.NodeID) bool {
	pop := c.g.ComponentSize(comp)
	rnd := c.seq[r]
	k := c.wit.tab[witKey{comp: comp, seq: rnd}]
	if c.done[r] {
		return k.cnt == pop && k.a == 0
	}
	kp := c.wit.tab[witKey{comp: comp, seq: rnd - 1}]
	return c.lev[r] == 0 &&
		k.cnt+kp.cnt == pop &&
		kp.a == 0 && k.b == 0 && k.d == 0 && k.e == 0
}
