package program

import (
	"sort"

	"netorient/internal/graph"
)

// Candidate lists the enabled actions of one enabled processor. The
// scheduler's hot path no longer materialises candidate lists (see
// EnabledSet); the type remains as the currency of the full-scan
// oracle and of explicit sets built for tests (CandidateSet).
type Candidate struct {
	Node    graph.NodeID
	Actions []ActionID
}

// EnabledSet is the daemon's view of the enabled processors at the
// start of a step (§2.1.2): an indexable, ascending-ordered set backed
// by the runner's cached enabled-action lists.
//
// The contract:
//
//   - Len returns the number of enabled processors.
//   - At(i) returns the i-th enabled processor; indices enumerate the
//     set in strictly ascending node order (exactly the order a full
//     guard scan would enumerate), so seeded daemons behave
//     identically under every scheduler.
//   - Actions(i, buf) appends the enabled actions of At(i) to buf and
//     returns the extended slice, letting daemons reuse a private
//     buffer across steps.
//   - Contains reports membership of an arbitrary node in O(1).
//
// Costs under the incremental runner: Len and Contains are O(1), At
// and Actions are O(log n) (an order-statistic query over the runner's
// Fenwick index) for random ranks, and amortized O(1+gap) for
// ascending sequential ranks (the runner memoises the last answer and
// scans for its successor). A sampling daemon (pick one of Len()
// processors) therefore costs O(log n) per step instead of an
// Ω(#enabled) materialised candidate slice; an enumerate-everything
// daemon pays O(n + #enabled), matching such a slice.
//
// The view is only valid for the duration of the Select call that
// received it: the runner mutates the underlying caches as soon as the
// selected moves execute. Daemons must not retain it, nor the slices
// Actions returns into caller-owned buffers.
type EnabledSet interface {
	Len() int
	At(i int) graph.NodeID
	Actions(i int, buf []ActionID) []ActionID
	Contains(v graph.NodeID) bool
}

// Daemon selects which enabled processors move in each step (§2.1.2).
// Select receives the enabled set and returns a non-empty sequence of
// moves, at most one per processor; the runner executes them in order
// with guard re-validation. The runner consumes the returned slice
// within the step, so a daemon may reuse its selection buffer across
// calls.
type Daemon interface {
	Name() string
	Select(set EnabledSet) []Move
}

// CandidateSet wraps an explicit candidate list as an EnabledSet. The
// list must be in strictly ascending node order. Contains costs
// O(log n) by binary search; the incremental runner's native view is
// O(1). It backs the full-scan oracle and hand-built sets in tests.
type CandidateSet []Candidate

// Len implements EnabledSet.
func (c CandidateSet) Len() int { return len(c) }

// At implements EnabledSet.
func (c CandidateSet) At(i int) graph.NodeID { return c[i].Node }

// Actions implements EnabledSet.
func (c CandidateSet) Actions(i int, buf []ActionID) []ActionID {
	return append(buf, c[i].Actions...)
}

// Contains implements EnabledSet.
func (c CandidateSet) Contains(v graph.NodeID) bool {
	i := sort.Search(len(c), func(i int) bool { return c[i].Node >= v })
	return i < len(c) && c[i].Node == v
}
