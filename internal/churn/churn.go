// Package churn drives seeded topology-event schedules over a running
// program.System: edge flaps, node crash/join cycles and network
// partitions with later heals, applied through graph mutation +
// System.ApplyDelta so the incremental machinery survives every event.
// It is the operational test of the headline property: the protocols
// are self-stabilizing, so a topology change is just another transient
// fault, and the system must re-converge from whatever state the event
// leaves behind (Devismes–Ilcinkas–Johnen make exactly this scenario —
// tree maintenance under disconnection/reconnection — the benchmark
// for dynamic self-stabilization).
//
// The engine serialises events: each event takes an element down,
// lets the system run for a configurable number of steps, restores the
// element, then measures re-stabilization inside the recovery window.
// Event selection is seeded and connectivity-preserving (the live
// graph stays connected outside partition-down phases, and the root is
// never crashed — the paper's model has no root failover).
package churn

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"netorient/internal/graph"
	"netorient/internal/program"
)

// Kind selects a churn scenario.
type Kind uint8

// Scenario kinds.
const (
	// EdgeFlap removes one connectivity-preserving edge and restores
	// it DownFor steps later.
	EdgeFlap Kind = iota + 1
	// NodeCrash removes one connectivity-preserving non-root node
	// (with all incident edges) and revives it, with its old edges,
	// DownFor steps later.
	NodeCrash
	// Partition cuts every edge between a random region and the rest
	// of the network, healing the cut DownFor steps later. The down
	// phase intentionally disconnects the live graph.
	Partition
	// BridgeCut removes one bridge — an edge whose removal splits the
	// live graph — and restores it DownFor steps later. Requires
	// Config.AllowDisconnect.
	BridgeCut
	// IslandCrash removes one cut vertex — a non-root node whose
	// removal splits the live graph into islands — and revives it, with
	// its old edges, DownFor steps later. Requires
	// Config.AllowDisconnect.
	IslandCrash
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case EdgeFlap:
		return "edge-flap"
	case NodeCrash:
		return "node-crash"
	case Partition:
		return "partition"
	case BridgeCut:
		return "bridge-cut"
	case IslandCrash:
		return "island-crash"
	}
	return "?"
}

// Config parameterises a churn run.
type Config struct {
	// Seed drives event selection.
	Seed int64
	// Events is the number of churn events.
	Events int
	// Period is the recovery window after each restore, in daemon
	// steps: re-stabilization is measured inside it, and the next
	// event fires at its end. It is the inverse churn rate.
	Period int64
	// DownFor is how many steps the removed element stays down.
	DownFor int64
	// Mix cycles through the scenario kinds; default {EdgeFlap}.
	Mix []Kind
	// PartitionSize bounds the cut-off region (default n/4, min 1).
	PartitionSize int
	// MaxSteps bounds the final full recovery (default 50000·(n+m)).
	MaxSteps int64
	// AllowDisconnect lifts the connectivity-preservation restriction:
	// EdgeFlap and NodeCrash pick candidates without a connectivity
	// check, BridgeCut and IslandCrash become available, and the down
	// phase of every event is measured with RunUntilLegitimate — the
	// protocols' legitimacy is decided per component, so a split system
	// can (and must) converge while split, which SplitConverged and
	// SplitSteps record.
	AllowDisconnect bool
}

// Stats aggregates a run.
type Stats struct {
	Events int
	// Deltas is the number of topology deltas applied (a node crash
	// is one delta, a partition one per cut edge).
	Deltas int
	// RecoveredInPeriod counts events whose restore was followed by
	// legitimacy within Period steps.
	RecoveredInPeriod int
	// RecoverySteps/Moves/Rounds hold one entry per in-period
	// recovery, measured from the restore.
	RecoverySteps  []int64
	RecoveryMoves  []int64
	RecoveryRounds []int64
	// SkippedEvents counts events abandoned because the seeded picker
	// found no candidate (e.g. EdgeFlap on a tree, BridgeCut on a
	// 2-edge-connected graph). Skipped events do not abort the run and
	// are excluded from Events.
	SkippedEvents int
	// SplitComponents holds, per AllowDisconnect event, the number of
	// live components during the down phase.
	SplitComponents []int
	// SplitConverged counts AllowDisconnect events whose down phase
	// reached per-component legitimacy within DownFor steps;
	// SplitSteps holds one entry per such event, measured from the
	// take-down.
	SplitConverged int
	SplitSteps     []int64
	// Final reports the run-off recovery after the last event.
	Final program.RunResult
}

// Errors.
var (
	ErrNoCandidate = errors.New("churn: no connectivity-preserving candidate")
)

// Runner binds an execution engine to its graph for a churn run. Any
// program.Stepper works — the serial incremental scheduler, the
// full-scan oracle, or the sharded parallel stepper — so one campaign
// definition runs under every engine. The protocol must be the one the
// engine drives, over exactly this graph.
type Runner struct {
	G    *graph.Graph
	Sys  program.Stepper
	Root graph.NodeID
}

// apply performs one graph mutation result on the system.
func (r *Runner) apply(d graph.Delta, st *Stats) {
	r.Sys.ApplyDelta(d)
	st.Deltas++
}

// idle steps the system without a predicate for exactly n steps (or
// until terminal — silent protocols stop moving once stabilized).
func (r *Runner) idle(n int64) error {
	_, err := r.Sys.RunUntil(func() bool { return false }, n)
	return err
}

// Run executes the configured schedule and measures re-stabilization
// after every restore. The system's protocol must implement
// program.Legitimacy (RunUntilLegitimate errors otherwise) and run on
// exactly r.G.
func (r *Runner) Run(cfg Config) (Stats, error) {
	if r.Sys.Protocol().Graph() != r.G {
		return Stats{}, errors.New("churn: system runs on a different graph than the runner")
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = []Kind{EdgeFlap}
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = int64(50000 * (r.G.N() + r.G.M()))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var st Stats
	for e := 0; e < cfg.Events; e++ {
		kind := mix[e%len(mix)]
		restore, err := TakeDown(r.G, r.Root, kind, cfg.AllowDisconnect, cfg.PartitionSize, rng, func(d graph.Delta) { r.apply(d, &st) })
		if errors.Is(err, ErrNoCandidate) {
			// The seeded picker came up empty (no bridge, no spare
			// edge, ...). That is a property of the current topology,
			// not a failure of the run: record it and move on.
			st.SkippedEvents++
			continue
		}
		if err != nil {
			return st, fmt.Errorf("churn: event %d (%s): %w", e, kind, err)
		}
		if cfg.AllowDisconnect {
			// Per-component legitimacy means a split system must
			// converge while split: measure the down phase instead of
			// idling through it.
			st.SplitComponents = append(st.SplitComponents, r.G.Components())
			res, err := r.Sys.RunUntilLegitimate(cfg.DownFor)
			if err != nil {
				return st, err
			}
			if res.Converged {
				st.SplitConverged++
				st.SplitSteps = append(st.SplitSteps, res.Steps)
				if err := r.idle(cfg.DownFor - res.Steps); err != nil {
					return st, err
				}
			}
		} else if err := r.idle(cfg.DownFor); err != nil {
			return st, err
		}
		if err := restore(); err != nil {
			return st, fmt.Errorf("churn: event %d (%s) restore: %w", e, kind, err)
		}
		st.Events++
		res, err := r.Sys.RunUntilLegitimate(cfg.Period)
		if err != nil {
			return st, err
		}
		if res.Converged {
			st.RecoveredInPeriod++
			st.RecoverySteps = append(st.RecoverySteps, res.Steps)
			st.RecoveryMoves = append(st.RecoveryMoves, res.Moves)
			st.RecoveryRounds = append(st.RecoveryRounds, res.Rounds)
			if err := r.idle(cfg.Period - res.Steps); err != nil {
				return st, err
			}
		}
	}
	final, err := r.Sys.RunUntilLegitimate(maxSteps)
	if err != nil {
		return st, err
	}
	st.Final = final
	return st, nil
}

// TakeDown applies the down phase of one event of the given kind to
// g, feeding every delta through apply, and returns the closure that
// restores it. The event's element is drawn by the kind's seeded
// picker from rng: without allowDisconnect the flap and crash pickers
// preserve connectivity and the bridge and island kinds are refused;
// a partition region has partitionSize nodes (default n/4, min 1). It
// returns ErrNoCandidate when the picker finds nothing. Runner.Run and
// the fault.Churn campaign both take their events down here.
func TakeDown(g *graph.Graph, root graph.NodeID, kind Kind, allowDisconnect bool, partitionSize int, rng *rand.Rand, apply func(graph.Delta)) (func() error, error) {
	if !allowDisconnect && (kind == BridgeCut || kind == IslandCrash) {
		return nil, fmt.Errorf("churn: %s requires AllowDisconnect", kind)
	}
	switch kind {
	case EdgeFlap, BridgeCut:
		pick := PickFlapEdge
		if kind == BridgeCut {
			pick = PickBridgeEdge
		} else if allowDisconnect {
			pick = PickAnyEdge
		}
		u, v, ok := pick(g, rng)
		if !ok {
			return nil, ErrNoCandidate
		}
		return FlapDown(g, u, v, apply)

	case NodeCrash, IslandCrash:
		pick := PickCrashNode
		if kind == IslandCrash {
			pick = PickCutVertex
		} else if allowDisconnect {
			pick = PickAnyNode
		}
		v, ok := pick(g, root, rng)
		if !ok {
			return nil, ErrNoCandidate
		}
		return CrashDown(g, v, apply)

	case Partition:
		size := partitionSize
		if size <= 0 {
			size = g.NAlive() / 4
		}
		cut, ok := PickPartitionCut(g, root, max(size, 1), rng)
		if !ok {
			return nil, ErrNoCandidate
		}
		return CutDown(g, cut, apply)
	}
	return nil, fmt.Errorf("churn: unknown kind %d", kind)
}

// FlapDown removes the edge {u,v}, feeding the delta through apply
// (which must call System.ApplyDelta on every system driving a
// protocol over g), and returns the closure that restores the edge the
// same way. The down/restore choreography lives here once; TakeDown
// and the fault.Churn campaign both consume it.
func FlapDown(g *graph.Graph, u, v graph.NodeID, apply func(graph.Delta)) (func() error, error) {
	d, err := g.RemoveEdge(u, v)
	if err != nil {
		return nil, err
	}
	apply(d)
	return func() error {
		d2, err := g.AddEdge(u, v)
		if err != nil {
			return err
		}
		apply(d2)
		return nil
	}, nil
}

// CrashDown removes node v with every incident edge and returns the
// closure that revives it (AddNode revives the lowest dead slot — v,
// when crashes are restored before the next one drops) and reattaches
// its surviving ex-neighbours.
func CrashDown(g *graph.Graph, v graph.NodeID, apply func(graph.Delta)) (func() error, error) {
	d, err := g.RemoveNode(v)
	if err != nil {
		return nil, err
	}
	ex := append([]graph.NodeID(nil), d.Touched[1:]...)
	apply(d)
	return func() error {
		id, d2 := g.AddNode()
		apply(d2)
		for _, q := range ex {
			if g.Alive(q) && !g.HasEdge(id, q) {
				d3, err := g.AddEdge(id, q)
				if err != nil {
					return err
				}
				apply(d3)
			}
		}
		return nil
	}, nil
}

// CutDown removes every edge of the cut and returns the closure that
// re-adds the ones whose endpoints are still alive.
func CutDown(g *graph.Graph, cut []graph.Edge, apply func(graph.Delta)) (func() error, error) {
	for _, e := range cut {
		d, err := g.RemoveEdge(e.U, e.V)
		if err != nil {
			return nil, err
		}
		apply(d)
	}
	return func() error {
		for _, e := range cut {
			if !g.Alive(e.U) || !g.Alive(e.V) || g.HasEdge(e.U, e.V) {
				continue
			}
			d, err := g.AddEdge(e.U, e.V)
			if err != nil {
				return err
			}
			apply(d)
		}
		return nil
	}, nil
}

// PickFlapEdge returns a uniformly random live edge whose removal
// keeps the live graph connected, by rejection sampling (every
// connected graph that is not a tree has one; on a tree ok is false).
func PickFlapEdge(g *graph.Graph, rng *rand.Rand) (u, v graph.NodeID, ok bool) {
	pickMu.Lock()
	defer pickMu.Unlock()
	m := g.M()
	if m == 0 {
		return graph.None, graph.None, false
	}
	for attempts := 0; attempts < 4*m+16; attempts++ {
		e := edgeAt(g, rng.Intn(m))
		if connectedWithoutEdge(&pick, g, e.U, e.V) {
			return e.U, e.V, true
		}
	}
	return graph.None, graph.None, false
}

// PickCrashNode returns a uniformly random live non-root node whose
// removal keeps the rest of the live graph connected.
func PickCrashNode(g *graph.Graph, root graph.NodeID, rng *rand.Rand) (graph.NodeID, bool) {
	pickMu.Lock()
	defer pickMu.Unlock()
	n := g.N()
	for attempts := 0; attempts < 4*n+16; attempts++ {
		v := graph.NodeID(rng.Intn(n))
		if v == root || !g.Alive(v) {
			continue
		}
		if connectedWithoutNode(&pick, g, root, v) {
			return v, true
		}
	}
	return graph.None, false
}

// PickAnyEdge returns a uniformly random live edge with no
// connectivity check — removals may split the graph.
func PickAnyEdge(g *graph.Graph, rng *rand.Rand) (u, v graph.NodeID, ok bool) {
	m := g.M()
	if m == 0 {
		return graph.None, graph.None, false
	}
	e := edgeAt(g, rng.Intn(m))
	return e.U, e.V, true
}

// edgeAt returns g.Edges()[i] without building the slice: it skips
// whole nodes by their count of higher-numbered neighbours, then ranks
// the chosen node's higher neighbours by counting, in O(n+m) time with
// no allocation.
func edgeAt(g *graph.Graph, i int) graph.Edge {
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		up := 0
		for _, v := range g.Neighbors(u) {
			if v != graph.None && v > u {
				up++
			}
		}
		if i >= up {
			i -= up
			continue
		}
		for _, v := range g.Neighbors(u) {
			if v == graph.None || v <= u {
				continue
			}
			rank := 0
			for _, w := range g.Neighbors(u) {
				if w != graph.None && w > u && w < v {
					rank++
				}
			}
			if rank == i {
				return graph.Edge{U: u, V: v}
			}
		}
	}
	panic(fmt.Sprintf("churn: edge index out of range [0,%d)", g.M()))
}

// PickAnyNode returns a uniformly random live non-root node with no
// connectivity check — crashes may island regions.
func PickAnyNode(g *graph.Graph, root graph.NodeID, rng *rand.Rand) (graph.NodeID, bool) {
	n := g.N()
	for attempts := 0; attempts < 4*n+16; attempts++ {
		v := graph.NodeID(rng.Intn(n))
		if v != root && g.Alive(v) {
			return v, true
		}
	}
	return graph.None, false
}

// PickBridgeEdge returns a uniformly random bridge — a live edge whose
// removal splits its component: the first bridge in a random
// permutation of g.Edges(); ok is false when the graph has none
// (2-edge-connected components only). One lowlink pass flags every
// bridge, so a pick costs O(n+m) whether or not it succeeds.
func PickBridgeEdge(g *graph.Graph, rng *rand.Rand) (u, v graph.NodeID, ok bool) {
	pickMu.Lock()
	defer pickMu.Unlock()
	edges := g.Edges()
	if len(edges) == 0 {
		return graph.None, graph.None, false
	}
	perm := rng.Perm(len(edges))
	ll := &pick.ll
	ll.pass(g)
	for _, i := range perm {
		if e := edges[i]; ll.bridge(e.U, e.V) {
			return e.U, e.V, true
		}
	}
	return graph.None, graph.None, false
}

// PickCutVertex returns a uniformly random live non-root cut vertex —
// a node whose removal splits its component into islands: the first
// one in a random permutation of the ids; ok is false when no non-root
// node is one. Like PickBridgeEdge it costs one lowlink pass.
func PickCutVertex(g *graph.Graph, root graph.NodeID, rng *rand.Rand) (graph.NodeID, bool) {
	pickMu.Lock()
	defer pickMu.Unlock()
	perm := rng.Perm(g.N())
	ll := &pick.ll
	ll.pass(g)
	for _, i := range perm {
		if v := graph.NodeID(i); v != root && g.Alive(v) && ll.flag[v]&flagCut != 0 {
			return v, true
		}
	}
	return graph.None, false
}

// pass runs one iterative Tarjan lowlink pass over every live
// component of g and leaves its verdicts in ll: the DFS parent of each
// live node, flagBridge on each node whose tree edge to its parent is a
// bridge, and flagCut on each cut vertex. A verdict is relative to the
// node's own component, so it is sound on an already-disconnected
// graph. O(n+m), with no allocation once the state is sized.
func (ll *lowlinks) pass(g *graph.Graph) {
	n := g.N()
	if len(ll.disc) < n {
		*ll = lowlinks{
			disc: make([]int32, n), low: make([]int32, n), next: make([]int32, n),
			parent: make([]graph.NodeID, n), flag: make([]uint8, n),
			stack: make([]graph.NodeID, 0, n),
		}
	}
	for v := range n {
		ll.disc[v] = -1
	}
	clock := int32(0)
	for r := graph.NodeID(0); int(r) < n; r++ {
		if !g.Alive(r) || ll.disc[r] >= 0 {
			continue
		}
		ll.enter(r, graph.None, clock)
		clock++
		kids := 0
		for len(ll.stack) > 0 {
			u := ll.stack[len(ll.stack)-1]
			if nb := g.Neighbors(u); int(ll.next[u]) < len(nb) {
				q := nb[ll.next[u]]
				ll.next[u]++
				switch {
				case q == graph.None || q == ll.parent[u]:
				case ll.disc[q] >= 0:
					ll.low[u] = min(ll.low[u], ll.disc[q])
				default:
					ll.enter(q, u, clock)
					clock++
					if u == r {
						kids++
					}
				}
				continue
			}
			ll.stack = ll.stack[:len(ll.stack)-1]
			if p := ll.parent[u]; p != graph.None {
				ll.low[p] = min(ll.low[p], ll.low[u])
				if ll.low[u] > ll.disc[p] {
					ll.flag[u] |= flagBridge
				}
				if ll.low[u] >= ll.disc[p] && p != r {
					ll.flag[p] |= flagCut
				}
			}
		}
		if kids >= 2 {
			ll.flag[r] |= flagCut
		}
	}
}

// lowlinks is the reusable state of a lowlink pass: discovery times
// (−1 while unvisited), lowlink values, port cursors, DFS parents,
// verdict flags and the DFS stack.
type lowlinks struct {
	disc, low, next []int32
	parent          []graph.NodeID
	flag            []uint8 // flagBridge | flagCut
	stack           []graph.NodeID
}

// lowlink verdicts.
const (
	flagBridge uint8 = 1 << iota // the tree edge to the node's parent is a bridge
	flagCut                      // the node is a cut vertex
)

// enter discovers v at time clock, with DFS parent p, and pushes it.
func (ll *lowlinks) enter(v, p graph.NodeID, clock int32) {
	ll.disc[v], ll.low[v], ll.next[v] = clock, clock, 0
	ll.parent[v], ll.flag[v] = p, 0
	ll.stack = append(ll.stack, v)
}

// bridge reports whether the pass flagged the edge {u,v} as a bridge.
func (ll *lowlinks) bridge(u, v graph.NodeID) bool {
	return (ll.parent[v] == u && ll.flag[v]&flagBridge != 0) ||
		(ll.parent[u] == v && ll.flag[u]&flagBridge != 0)
}

// PickPartitionCut grows a random connected region of up to `size`
// live nodes not containing root and returns the edges between the
// region and the rest — removing them all disconnects exactly that
// region.
func PickPartitionCut(g *graph.Graph, root graph.NodeID, size int, rng *rand.Rand) ([]graph.Edge, bool) {
	pickMu.Lock()
	defer pickMu.Unlock()
	n := g.N()
	var seed graph.NodeID = graph.None
	for attempts := 0; attempts < 4*n+16; attempts++ {
		v := graph.NodeID(rng.Intn(n))
		if v != root && g.Alive(v) {
			seed = v
			break
		}
	}
	if seed == graph.None {
		return nil, false
	}
	sc := &pick
	sc.reset(g)
	// The region is sc.queue in BFS order: the queue keeps every node
	// it ever held, and head walks the frontier.
	sc.mark(seed)
	for head := 0; head < len(sc.queue) && len(sc.queue) < size; head++ {
		for _, q := range g.Neighbors(sc.queue[head]) {
			if q == graph.None || q == root || sc.marked(q) {
				continue
			}
			if len(sc.queue) >= size {
				break
			}
			sc.mark(q)
		}
	}
	// Each cut edge has exactly one endpoint in the region, so it is
	// found once; sorting makes the result independent of BFS order.
	ncut := 0
	for _, v := range sc.queue {
		for _, q := range g.Neighbors(v) {
			if q != graph.None && !sc.marked(q) {
				ncut++
			}
		}
	}
	if ncut == 0 {
		return nil, false
	}
	cut := make([]graph.Edge, 0, ncut)
	for _, v := range sc.queue {
		for _, q := range g.Neighbors(v) {
			if q == graph.None || sc.marked(q) {
				continue
			}
			cut = append(cut, graph.Edge{U: min(v, q), V: max(v, q)})
		}
	}
	slices.SortFunc(cut, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return cut, true
}

// connectedWithoutEdge reports whether the live graph stays connected
// with the edge {a,b} ignored.
func connectedWithoutEdge(sc *scratch, g *graph.Graph, a, b graph.NodeID) bool {
	return sweep(sc, g, a, func(u, q graph.NodeID) bool {
		return (u == a && q == b) || (u == b && q == a)
	}) == g.NAlive()
}

// connectedWithoutNode reports whether every live node except x is
// reachable from start with x ignored.
func connectedWithoutNode(sc *scratch, g *graph.Graph, start, x graph.NodeID) bool {
	if start == x {
		return false
	}
	reached := sweep(sc, g, start, func(u, q graph.NodeID) bool {
		return q == x
	})
	return reached == g.NAlive()-1
}

// sweep BFS-counts the live nodes reachable from start, skipping
// traversals for which skip(from, to) holds.
func sweep(sc *scratch, g *graph.Graph, start graph.NodeID, skip func(u, q graph.NodeID) bool) int {
	sc.reset(g)
	sc.mark(start)
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		for _, q := range g.Neighbors(u) {
			if q == graph.None || sc.marked(q) || skip(u, q) {
				continue
			}
			sc.mark(q)
		}
	}
	return len(sc.queue)
}

// scratch is the pickers' reusable state: the BFS visited set and
// queue of sweep and PickPartitionCut, and the lowlink pass. The
// pickers are package-level functions, so one instance serves them all
// behind pickMu: each exported picker that needs it locks it once at
// entry and hands it to its helpers.
type scratch struct {
	seen  graph.Marks
	queue []graph.NodeID // every node marked since reset, in order
	ll    lowlinks
}

var (
	pickMu sync.Mutex
	pick   scratch
)

// reset empties the visited set and the queue, sized for g.
func (sc *scratch) reset(g *graph.Graph) {
	sc.seen.Reset(g.N())
	sc.queue = slices.Grow(sc.queue[:0], g.N())
}

// mark records v as visited and enqueues it.
func (sc *scratch) mark(v graph.NodeID) {
	sc.seen.Add(v)
	sc.queue = append(sc.queue, v)
}

func (sc *scratch) marked(v graph.NodeID) bool { return sc.seen.Has(v) }
