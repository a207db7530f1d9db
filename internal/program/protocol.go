// Package program defines the execution model of the paper (§2.1): a
// protocol is a finite set of guarded actions over locally-shared
// variables; a daemon repeatedly selects enabled processors; the
// selected processors atomically execute one enabled action each.
//
// Protocols expose their guards through Enabled and their statements
// through Execute; a System drives a protocol under a Daemon and
// accounts for moves (single action executions) and rounds (minimal
// computation segments in which every continuously-enabled processor
// moves or becomes disabled).
package program

import (
	"math/rand"

	"netorient/internal/graph"
)

// ActionID identifies one guarded action of a protocol. IDs are
// protocol-specific and contiguous from 0.
type ActionID int

// Move is one atomic action execution by one processor.
type Move struct {
	Node   graph.NodeID
	Action ActionID
}

// Protocol is a distributed guarded-command program in the paper's
// locally-shared-variable model. Implementations keep all per-node
// state internally; Enabled must be read-only.
type Protocol interface {
	// Name identifies the protocol in traces and tables.
	Name() string
	// Graph returns the communication graph the protocol runs on.
	Graph() *graph.Graph
	// Enabled appends to buf the IDs of the actions whose guards hold
	// at node v, and returns the extended slice. Passing a reused
	// buffer avoids per-step allocations.
	Enabled(v graph.NodeID, buf []ActionID) []ActionID
	// Execute atomically re-evaluates the guard of action a at node v
	// and, if it still holds, runs the action's statement. It reports
	// whether the action fired. Re-evaluation makes sequentialised
	// distributed-daemon steps safe: a sub-move whose guard was
	// invalidated by an earlier sub-move of the same step is skipped.
	Execute(v graph.NodeID, a ActionID) bool
}

// Influencer is the locality contract of the incremental scheduler.
// Influence appends to buf every node whose enabled-action set may
// differ after executing action a at node v, and returns the extended
// slice. The set must cover v itself (the runner adds v defensively)
// and must be sound on every reachable configuration: a node omitted
// from the set keeps its cached guards, so under-reporting silently
// corrupts executions. Over-reporting only costs time, and the set may
// repeat nodes: the engines queue each node once.
//
// ParallelSystem calls Influence from concurrent phase-A workers, so it
// must be read-only like Enabled: it may not write per-instance
// scratch (a memo, a visited set), and a ball wider than the closed
// neighbourhood comes from InfluenceWalk, which needs none.
//
// Protocols that do not implement Influencer get the default locality
// of the shared-memory model: a move at v can only change guards in
// v's closed 1-hop neighbourhood, because statements write only v's
// own variables and guards read only the variables of the evaluating
// node and its neighbours. Implement Influencer when either half of
// that argument fails — e.g. a layered protocol whose guards consult a
// substrate function that itself reads neighbour state (STNO over a
// DFS tree reads two hops away) — and document the audit next to the
// implementation. CheckLocality verifies declarations empirically.
type Influencer interface {
	Influence(v graph.NodeID, a ActionID, buf []graph.NodeID) []graph.NodeID
}

// LocalityRadius is the symmetric, distance-based strengthening of the
// Influencer contract that the sharded parallel stepper
// (ParallelSystem) relies on. A protocol declaring radius R promises,
// for every reachable configuration, every node v and every action a:
//
//   - the guard and statement of (v, a) read only variables of nodes
//     in the closed ball B(v,R) = {u : dist(u,v) ≤ R};
//   - the statement writes only v's own variables;
//   - Influence(v, a, ·) ⊆ B(v,R).
//
// Unlike an Influence set, a ball is symmetric — u ∈ B(v,R) ⟺
// v ∈ B(u,R) — which is what turns the locality declaration into a
// commutativity rule: if B(v,R) lies entirely inside one shard, no
// node outside that shard can read or be influenced by a move at v,
// so such moves from different shards commute and may execute
// concurrently. Protocols without the interface get the model's
// default, radius 1 (guards read the closed neighbourhood, statements
// write the mover). Declaring too small a radius silently corrupts
// parallel executions — the same soundness rule as Influencer, audited
// by the parallel-vs-serial differential suite.
//
// "Variables" above means state that moves can write. Derived facts
// that only change in the engine's serial phases — reference namings
// and target vectors rebuilt by TopologyChanged or an authority
// rebinding, never by Execute — are exempt: guards may read them from
// any distance, because they are constant while workers run (DFTNO's
// guards read the global reference naming and still declare the
// default radius 1 for exactly this reason).
type LocalityRadius interface {
	LocalityRadius() int
}

// ProtocolRadius returns p's declared locality radius, defaulting to 1.
func ProtocolRadius(p Protocol) int {
	if lr, ok := p.(LocalityRadius); ok {
		if r := lr.LocalityRadius(); r > 1 {
			return r
		}
	}
	return 1
}

// TopologyAware is the dynamic-topology half of the locality story: a
// protocol that can keep running across in-place mutations of its
// communication graph (graph.AddEdge / RemoveEdge / AddNode /
// RemoveNode).
//
// TopologyChanged is called by System.ApplyDelta after the graph has
// been mutated, exactly once per delta per protocol instance. It must
//
//  1. rebind port-indexed per-node state: arrays indexed by port must
//     cover the (possibly grown) port space graph.Ports(v) of every
//     touched node, and arrays indexed by node must cover graph.N();
//  2. clamp dangling references: exploration pointers aimed at removed
//     ports, parent pointers to ex-neighbours, and similar fields must
//     be reset to in-bounds values. The *semantic* content of the
//     resulting state is deliberately unconstrained — a topology event
//     is a transient fault and stabilization is the protocols' job —
//     but every index must be safe to dereference;
//  3. refresh derived topology facts (reference namings, cached target
//     vectors), invalidating any incremental legitimacy witness whose
//     per-node clauses those facts feed when they changed (the witness
//     lazily re-arms);
//  4. append to buf and return the delta's influence ball: every node
//     whose Enabled set or witness contribution may differ after the
//     delta plus the protocol's own clamps. The same soundness rule as
//     Influencer applies — omissions silently corrupt executions,
//     over-reporting and repeated nodes only cost time (the balls of
//     several touched nodes overlap anyway) — and the ball must stay
//     local (O(deg·Δ) around the touched set), because keeping
//     topology events cheaper than a whole-system Invalidate is the
//     point.
//
// A Layer grows the layer's own arrays, runs the inner stack's hook,
// then the layer's own repair, so the ball lists the inner ball first.
// Protocols without the interface can still run on a
// mutated graph via System.Invalidate, at Θ(n) per event.
type TopologyAware interface {
	TopologyChanged(d graph.Delta, buf []graph.NodeID) []graph.NodeID
}

// InfluenceClosedNeighborhood appends the default influence set — v
// plus its neighbours in port order — to buf. Protocols that implement
// Influencer for documentation purposes but have standard locality can
// delegate to it. Holes in a mutated graph's port space are skipped.
func InfluenceClosedNeighborhood(g *graph.Graph, v graph.NodeID, buf []graph.NodeID) []graph.NodeID {
	buf = append(buf, v)
	for _, q := range g.Neighbors(v) {
		if q != graph.None {
			buf = append(buf, q)
		}
	}
	return buf
}

// InfluenceBall appends the closed ball B(v, radius) to buf in BFS
// order: v, then every live node within radius hops, each once; radius
// 1 is the closed neighbourhood. Membership is decided against seen,
// which the caller owns and InfluenceBall resets, so the cost is linear
// in the ball's edges (BenchmarkInfluenceBall tracks it at radius 2 on
// a 64×64 grid) and a warm call allocates nothing. On return seen holds
// exactly the ball.
func InfluenceBall(g *graph.Graph, v graph.NodeID, radius int, seen *graph.Marks, buf []graph.NodeID) []graph.NodeID {
	seen.Reset(g.N())
	seen.Add(v)
	lo := len(buf)
	buf = append(buf, v)
	for hop := 0; hop < radius && lo < len(buf); hop++ {
		hi := len(buf)
		for _, u := range buf[lo:hi] {
			for _, q := range g.Neighbors(u) {
				if q != graph.None && seen.Add(q) {
					buf = append(buf, q)
				}
			}
		}
		lo = hi
	}
	return buf
}

// InfluenceWalk appends a closed walk around v that covers B(v, radius)
// to buf: v, then the neighbours of every node the previous hop
// appended, repeats included. Its distinct nodes are InfluenceBall's,
// first met in the same BFS order. It needs no scratch, so an Influence
// implementation may call it from concurrent workers; the walk has
// O(Δ^radius) entries, which suits the small radii protocols declare.
func InfluenceWalk(g *graph.Graph, v graph.NodeID, radius int, buf []graph.NodeID) []graph.NodeID {
	lo := len(buf)
	buf = append(buf, v)
	for hop := 0; hop < radius; hop++ {
		hi := len(buf)
		for _, u := range buf[lo:hi] {
			for _, q := range g.Neighbors(u) {
				if q != graph.None {
					buf = append(buf, q)
				}
			}
		}
		lo = hi
	}
	return buf
}

// Legitimacy is implemented by protocols that can decide their
// legitimacy predicate L_P on the current configuration.
type Legitimacy interface {
	Legitimate() bool
}

// RootAuthority decides, per node, whether it currently acts as a root.
// It is the indirection point of the root-failover layer: a rooted
// protocol that consults an authority instead of comparing against its
// fixed root re-anchors itself whenever the authority's verdict
// changes — an orphan component's elected acting root starts rounds,
// anchors reference traversals and terminates parent chains exactly
// like the designated root does in its own component.
//
// Contract:
//
//   - IsRoot(v) must be a function of v's own protocol-visible state
//     (plus immutable identity), so that a flip at v perturbs guards
//     only within the influence ball of the move that caused it. The
//     failover layer satisfies this by deriving IsRoot(v) from v's own
//     detection and election variables.
//   - RootsVersion is a monotone counter bumped whenever IsRoot's
//     verdict changes for any node, letting consumers cache facts
//     derived from the whole root set (reference traversals, target
//     vectors, witness bucketings) and rebuild them lazily on
//     mismatch — the same staleness discipline as graph.CompVersion.
//   - Exactly one node per component satisfies IsRoot in any settled
//     configuration; transient configurations may have zero or several
//     (legitimacy predicates treat those components as not yet
//     converged or degraded).
type RootAuthority interface {
	IsRoot(v graph.NodeID) bool
	RootsVersion() uint64
}

// Rootable is implemented by rooted protocols that can defer their
// root test to a RootAuthority. Binding a nil authority (or never
// binding one) anchors the protocol at its fixed root alone: the
// degenerate authority whose only root is the live fixed root (see
// Roots), so binding that authority explicitly changes no move and no
// verdict. A rooted layer (DFTNO, STNO) binds its substrate in its
// own BindRootAuthority, so the whole stack re-anchors coherently;
// Layer does not compose the binding, because the failover wrapper
// embeds one too and is the authority, not Rootable.
type Rootable interface {
	BindRootAuthority(a RootAuthority)
}

// Snapshotter is implemented by protocols whose configuration can be
// captured and restored. Snapshot bytes must be canonical and
// injective: two configurations yield identical bytes exactly when
// they are equal, which is how the model checker tells states apart
// and how the fault injector and the replay checks rewind. Restore
// rejects truncated input, trailing bytes, and layer bytes it cannot
// restore (an inner layer's own error, or layer bytes with no inner
// stack to take them), and clamps or rejects values outside the
// variables' domains; after a successful Restore, Snapshot followed by
// Restore is the identity. Implementations write and read their
// fields through SnapshotWriter and SnapshotReader, which enforce the
// framing half of this contract.
type Snapshotter interface {
	Snapshot() []byte
	Restore(data []byte) error
}

// Randomizer is implemented by protocols that can re-initialise
// themselves to an arbitrary (adversarial) configuration, exercising
// the "starting from an arbitrary state" half of self-stabilization.
type Randomizer interface {
	Randomize(rng *rand.Rand)
}

// NodeCorruptor is implemented by protocols that can hit a single
// processor with a transient fault, i.e. overwrite its local
// variables with arbitrary values of their domains. Fault-injection
// campaigns (package fault) measure recovery from k-node corruption.
type NodeCorruptor interface {
	CorruptNode(v graph.NodeID, rng *rand.Rand)
}

// SpaceMeter is implemented by protocols that report the size of their
// per-node state, in bits, under the paper's accounting (variables
// ranging over 0..N-1 cost ⌈log₂N⌉ bits, per-edge variables cost
// Δ_v·⌈log₂N⌉, …).
type SpaceMeter interface {
	StateBits(v graph.NodeID) int
}

// ActionNamer is implemented by protocols that can render action IDs
// for traces.
type ActionNamer interface {
	ActionName(a ActionID) string
}

// ActionName renders action a of p, falling back to a numeric form.
func ActionName(p Protocol, a ActionID) string {
	if n, ok := p.(ActionNamer); ok {
		return n.ActionName(a)
	}
	return "A" + itoa(int(a))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
