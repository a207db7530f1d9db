package program

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"netorient/internal/graph"
)

// This file implements the sharded parallel stepper: a multi-core
// execution mode for the distributed daemon. The paper's daemon model
// already legitimizes simultaneous activation of any enabled subset —
// a parallel batch needs no new semantics, only a proof that it equals
// some legal serial interleaving. The engine manufactures that proof
// by construction:
//
//   - The node id space is split into contiguous ranges, one shard per
//     worker (graph.BFSOrder + graph.ReorderNodes give relabelings
//     under which contiguous ranges are topologically thin, so the
//     boundary between shards is small).
//   - A node v is *interior* to its shard iff its closed locality ball
//     B(v,R) — R from the protocol's LocalityRadius declaration,
//     default 1 — lies entirely inside the shard. Balls are symmetric,
//     so if v is interior, no node outside v's shard can read v's
//     variables or have its guard influenced by a move at v: interior
//     moves of different shards commute, and the workers execute them
//     concurrently without locks. Every other node is *frontier* and
//     is executed in a serialized boundary pass — cross-shard
//     conflicts are thereby excluded by the disjointness test, not
//     assumed away, and a protocol that under-declares its radius is
//     caught by the ownership breach check below.
//   - Each parallel step is: phase A — every worker sweeps its shard
//     in ascending id order, fires each enabled interior node (subject
//     to the distributed daemon's seeded activation draw) and eagerly
//     repairs the guard cache of the influenced ball, which ownership
//     confines to its own shard; barrier; phase B — the boundary pass
//     over the frontier. By default phase B is one goroutine sweeping
//     the frontier in ascending global order; with
//     ParallelConfig.FrontierWaves it becomes batched concurrent
//     *waves* (below). The equivalent serial interleaving is
//     canonical: shard 0's move sequence, then shard 1's, …, then the
//     boundary moves (wave 0's ascending, wave 1's, … when waves are
//     on). Replaying that sequence through Protocol.Execute from the
//     same initial configuration fires every move and reproduces the
//     final configuration bit-for-bit (the differential suite checks
//     exactly this).
//   - Wave scheduling: the daemon model already permits simultaneous
//     activation of any enabled set with pairwise-disjoint influence
//     balls, so the serialized frontier sweep is pessimistic. The
//     engine greedily colors the frontier conflict graph — two
//     frontier nodes conflict iff their distance is ≤ 2R, the exact
//     condition for their radius-R balls to intersect
//     (graph.ConflictAdjacency) — and caches the color classes as
//     waves, invalidated with the same locality discipline as the
//     interior/frontier classification itself. Per step and wave, the
//     activation/action draws are made serially from the boundary RNG
//     in ascending member order, then the chosen moves are fired
//     across the worker pool; disjoint balls make the concurrent
//     executes and cache repairs race-free by the same symmetry
//     argument that makes interior moves of different shards commute.
//     A protocol that under-declares its radius is caught here too:
//     an influence set escaping the mover's ball is a breach, never a
//     write.
//   - Determinism: shard s draws from its own rand.Rand seeded from
//     (Seed, s); the boundary pass has its own, consumed in the same
//     ascending frontier order whether the execution is serial or in
//     waves (wave order is itself a deterministic function of the
//     topology). Same seed + same worker count + same wave setting ⇒
//     bit-identical trace; a different worker count — or toggling
//     waves — is a different (still legal) schedule.
//
// Topology churn composes by quiescence: workers only exist inside
// Step, so ApplyDelta always runs with no worker active. It repairs
// the guard cache locally (same contract as System.ApplyDelta, growth
// included) and re-classifies interior/frontier membership only inside
// the radius-R ball of the touched set; the wave schedule additionally
// watches the 2R ball, because an edge flap can rewire frontier
// conflicts without flipping any membership (see reclassify).
//
// Work-driven resharding: ParallelConfig.Reshard arms a policy that
// watches the per-shard phase-A work counters and, when their max/mean
// skew exceeds the threshold, re-partitions the shard boundaries by
// prefix sums of recent work through the same quiesced path an
// explicit Reshard takes. See ReshardPolicy for the determinism
// contract.
//
// Work/span accounting: the engine counts one work unit per guard
// evaluation and per executed move. The span of a step is the largest
// per-shard phase-A count plus the phase-B critical path — the whole
// boundary count when phase B is serial, or Σ over waves of the
// largest per-worker chunk when waves are on. (The two phases are
// barrier-separated, so the step span is their sum, not their max.)
// The ratio work/span is the schedule's available parallelism;
// experiment T17 reports counted moves per span unit, a
// same-process, hardware- and core-count-independent throughput
// measure (the committed baselines are reproducible on a single-core
// runner).

// ParallelConfig parameterises a ParallelSystem.
type ParallelConfig struct {
	// Workers is the shard/worker count; ≤0 means runtime.GOMAXPROCS.
	Workers int
	// Seed drives the per-shard and boundary RNGs.
	Seed int64
	// Activation is the distributed daemon's per-candidate inclusion
	// probability; 0 means 1.0 (every enabled node is activated — the
	// maximal distributed daemon).
	Activation float64
	// Record keeps the move trace (canonical serialization order) for
	// the serial-oracle differential suite. Off by default: a trace on
	// a million-node run is the dominant allocation.
	Record bool
	// FrontierWaves executes phase B as batched concurrent waves
	// instead of one serial sweep: the frontier is partitioned by a
	// greedy distance-2R coloring into sets with pairwise-disjoint
	// radius-R balls, and each wave fires across the worker pool. Off
	// by default; see the wave-scheduling notes above.
	FrontierWaves bool
	// Reshard enables work-driven dynamic resharding; the zero value
	// keeps boundaries fixed (reshard only on explicit Reshard calls).
	Reshard ReshardPolicy
}

// ReshardPolicy is the work-driven dynamic resharding contract: after
// every step the engine compares the per-shard phase-A work
// accumulated since the last boundary move; when max/mean exceeds
// Imbalance (and at least MinInterval steps have passed), it
// re-partitions the id space by prefix sums of that recent work,
// reusing the explicit Reshard quiesce path. Boundaries therefore move
// only between steps, never under a running worker, and the trace
// stays a pure function of (snapshot, seed, workers) — the work
// counters that trigger the move are themselves deterministic.
type ReshardPolicy struct {
	// Imbalance is the max/mean per-shard work ratio that triggers a
	// reshard; values ≤ 1 disable the policy.
	Imbalance float64
	// MinInterval is the minimum number of steps between automatic
	// reshards (default 32 when the policy is enabled), bounding the
	// amortised cost of the O(n·R) reclassification each move costs.
	MinInterval int64
}

func (rp ReshardPolicy) enabled() bool { return rp.Imbalance > 1 }

func (rp ReshardPolicy) minInterval() int64 {
	if rp.MinInterval <= 0 {
		return 32
	}
	return rp.MinInterval
}

// ParallelSystem drives one protocol with sharded parallel
// distributed-daemon steps. It is not safe for concurrent use by
// multiple goroutines — parallelism lives inside Step, and every other
// method (ApplyDelta, Legitimate checks, accessors) must be called
// from the owning goroutine between steps, exactly where the engine
// quiesces.
type ParallelSystem struct {
	proto  Protocol
	inf    Influencer
	g      *graph.Graph
	radius int

	workers    int
	seed       int64
	activation float64
	record     bool
	waves      bool
	reshard    ReshardPolicy

	// Shard geometry: shard s owns ids [bounds[s], bounds[s+1]).
	bounds   []int
	shardOf  []int32
	interior []bool
	frontier []graph.NodeID // ascending non-interior ids
	shards   []*pshard
	brng     *rand.Rand

	// Wave schedule: waveSets partitions the frontier into greedy
	// distance-2R color classes (ascending ids within each wave),
	// cached like the interior/frontier classification and recomputed
	// only when the frontier or the topology near it changes.
	waveSets [][]graph.NodeID
	waveDraw []Move   // per-wave pre-drawn (node, action) firing list
	wwork    []*wwave // per-worker wave execution scratch

	// Work-driven resharding state: recentA accumulates per-shard
	// phase-A work since the last boundary move, shardWork since the
	// beginning (for observability).
	recentA      []int64
	shardWork    []int64
	sinceReshard int64
	reshards     int64

	// Classification bookkeeping counters (see reclassify).
	frontierRebuilds int64
	waveRebuilds     int64
	reclassSkips     int64

	// Guard cache, same invariant as System: after every Step and
	// ApplyDelta, acts[v] equals a fresh Protocol.Enabled(v).
	inited  bool
	arena   []ActionID
	acts    [][]ActionID
	enabled []bool
	count   int
	seenN   int

	// Serial-phase dirty scratch (boundary pass, ApplyDelta).
	mark     []int64
	epoch    int64
	dirty    []graph.NodeID
	infBuf   []graph.NodeID
	classBuf []graph.NodeID // reclassify scratch, disjoint from infBuf

	// Round bookkeeping (same definition as System's incremental mode).
	pending      []bool
	pendingCount int
	roundOpen    bool
	startRound   bool

	moves  int64
	steps  int64
	rounds int64

	work  int64 // Σ guard evals + moves, all phases
	span  int64 // Σ per-step (max shard phase-A work + phase-B critical path)
	spanB int64 // phase-B share of span (serial: its whole work; waves: Σ per-wave max chunk)

	trace []Move
}

// wwave is one worker's wave-execution scratch: the frontier analogue
// of pshard. During a wave the worker fires a contiguous chunk of the
// wave's pre-drawn moves; ball disjointness (the wave invariant) makes
// its cache writes disjoint from every other worker's, so the scratch
// needs no locks — exactly the phase-A argument with "shard ownership"
// replaced by "ball ownership".
type wwave struct {
	ps      *ParallelSystem
	dirty   []graph.NodeID
	infBuf  []graph.NodeID
	ballBuf []graph.NodeID
	trace   []Move

	work     int64 // execute attempts + refresh evals, serial-phase-B-comparable
	moves    int64
	countD   int
	pendingD int
	breach   graph.NodeID // first node influenced outside the mover's ball
	breachBy graph.NodeID // the mover that did it
}

// pshard is one worker's shard: a contiguous id range plus the
// worker-private scratch that keeps phase A lock-free. All fields are
// touched only by the owning worker during phase A and only by the
// serial phases otherwise.
type pshard struct {
	ps     *ParallelSystem
	id     int
	lo, hi int
	rng    *rand.Rand

	dirty  []graph.NodeID
	infBuf []graph.NodeID
	trace  []Move

	stepEvals int64
	stepMoves int64
	countD    int
	pendingD  int
	breach    graph.NodeID // first foreign node an influence set named; None if clean
}

// NewParallelSystem returns a sharded parallel stepper for proto.
func NewParallelSystem(proto Protocol, cfg ParallelConfig) *ParallelSystem {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n := proto.Graph().N(); w > n && n > 0 {
		w = n
	}
	act := cfg.Activation
	if act <= 0 || act > 1 {
		act = 1
	}
	inf, _ := proto.(Influencer)
	return &ParallelSystem{
		proto:      proto,
		inf:        inf,
		g:          proto.Graph(),
		radius:     ProtocolRadius(proto),
		workers:    w,
		seed:       cfg.Seed,
		activation: act,
		record:     cfg.Record,
		waves:      cfg.FrontierWaves,
		reshard:    cfg.Reshard,
		seenN:      proto.Graph().N(),
	}
}

// Protocol returns the protocol under execution.
func (ps *ParallelSystem) Protocol() Protocol { return ps.proto }

// Workers returns the worker/shard count.
func (ps *ParallelSystem) Workers() int { return ps.workers }

// Moves returns the number of executed moves so far.
func (ps *ParallelSystem) Moves() int64 { return ps.moves }

// Steps returns the number of parallel steps so far.
func (ps *ParallelSystem) Steps() int64 { return ps.steps }

// Rounds returns the number of completed rounds so far (same
// definition as System: every processor continuously enabled since the
// round began has moved or been seen disabled).
func (ps *ParallelSystem) Rounds() int64 { return ps.rounds }

// WorkUnits returns the counted work so far: one unit per guard
// evaluation and per executed move, summed over all phases of all
// steps (the bootstrap scan is excluded — it is a one-time serial cost
// every worker count pays identically).
func (ps *ParallelSystem) WorkUnits() int64 { return ps.work }

// SpanUnits returns the counted critical path so far: per step, the
// largest per-shard phase-A work plus the serial phase-B work. With
// one worker span equals work; the ratio work/span is the schedule's
// available parallelism, independent of wall-clock and core count.
func (ps *ParallelSystem) SpanUnits() int64 { return ps.span }

// Trace returns the recorded move trace in canonical serialization
// order (per step: shard 0's moves, shard 1's, …, boundary moves).
// Empty unless ParallelConfig.Record was set.
func (ps *ParallelSystem) Trace() []Move { return ps.trace }

// FrontierSize returns how many live nodes are currently classified
// frontier (executed by the boundary pass — serial, or in waves when
// FrontierWaves is on).
func (ps *ParallelSystem) FrontierSize() int {
	ps.ensureInit()
	return len(ps.frontier)
}

// WaveCount returns how many waves the current frontier schedule has —
// the chromatic number the greedy distance-2R coloring achieved. Zero
// when wave execution is off or the frontier is empty.
func (ps *ParallelSystem) WaveCount() int {
	ps.ensureInit()
	return len(ps.waveSets)
}

// Reshards returns how many automatic boundary moves the ReshardPolicy
// has performed (explicit Reshard calls are not counted).
func (ps *ParallelSystem) Reshards() int64 { return ps.reshards }

// FrontierRebuilds returns how many times a delta's reclassification
// actually flipped a membership and rebuilt the frontier list.
func (ps *ParallelSystem) FrontierRebuilds() int64 { return ps.frontierRebuilds }

// WaveRebuilds returns how many times the wave schedule was recomputed
// (frontier rebuilds plus wave-only recomputations after deltas that
// changed the topology within 2R of the frontier).
func (ps *ParallelSystem) WaveRebuilds() int64 { return ps.waveRebuilds }

// ReclassSkips returns how many ApplyDelta calls left both the
// frontier list and the wave schedule untouched — deltas whose 2R ball
// missed the frontier entirely, the cheap common case on relabeled
// graphs that deep-interior churn should hit almost always.
func (ps *ParallelSystem) ReclassSkips() int64 { return ps.reclassSkips }

// ShardWork appends the cumulative per-shard phase-A work counters
// (one per worker) to buf — the imbalance signal the ReshardPolicy
// watches, exposed for observability (orientd metrics).
func (ps *ParallelSystem) ShardWork(buf []int64) []int64 {
	ps.ensureInit()
	return append(buf, ps.shardWork...)
}

// BoundarySpanUnits returns the phase-B share of the counted span: the
// whole boundary work when the pass is serial, the Σ of per-wave
// maximum chunk work when waves are on. The seam cost T17 measures.
func (ps *ParallelSystem) BoundarySpanUnits() int64 { return ps.spanB }

// EnabledNodes appends the ids of all currently enabled processors in
// ascending order and returns the extended slice.
func (ps *ParallelSystem) EnabledNodes(buf []graph.NodeID) []graph.NodeID {
	ps.ensureInit()
	for v, on := range ps.enabled {
		if on {
			buf = append(buf, graph.NodeID(v))
		}
	}
	return buf
}

// EnabledCount returns the number of currently enabled processors.
func (ps *ParallelSystem) EnabledCount() int {
	ps.ensureInit()
	return ps.count
}

// Silent reports whether no action is enabled anywhere.
func (ps *ParallelSystem) Silent() bool { return ps.EnabledCount() == 0 }

// ensureInit builds the shard geometry and bootstraps the guard cache
// with one full scan.
func (ps *ParallelSystem) ensureInit() {
	if ps.inited {
		return
	}
	n := ps.g.N()
	ps.bounds = make([]int, ps.workers+1)
	for s := 0; s <= ps.workers; s++ {
		ps.bounds[s] = s * n / ps.workers
	}
	ps.shardOf = make([]int32, n)
	for s := 0; s < ps.workers; s++ {
		for v := ps.bounds[s]; v < ps.bounds[s+1]; v++ {
			ps.shardOf[v] = int32(s)
		}
	}
	ps.interior = make([]bool, n)
	ps.classifyAll()
	ps.shards = make([]*pshard, ps.workers)
	for s := 0; s < ps.workers; s++ {
		ps.shards[s] = &pshard{
			ps:     ps,
			id:     s,
			lo:     ps.bounds[s],
			hi:     ps.bounds[s+1],
			rng:    rand.New(rand.NewSource(shardSeed(ps.seed, s))),
			breach: graph.None,
		}
	}
	ps.brng = rand.New(rand.NewSource(shardSeed(ps.seed, -1)))
	if ps.recentA == nil {
		ps.recentA = make([]int64, ps.workers)
		ps.shardWork = make([]int64, ps.workers)
	}
	for s := range ps.recentA {
		ps.recentA[s] = 0
	}
	ps.sinceReshard = 0
	if ps.waves && ps.wwork == nil {
		ps.wwork = make([]*wwave, ps.workers)
		for s := range ps.wwork {
			ps.wwork[s] = &wwave{ps: ps, breach: graph.None, breachBy: graph.None}
		}
	}

	if ps.acts == nil {
		ps.arena = make([]ActionID, n*actionStride)
		ps.acts = make([][]ActionID, n)
		for v := 0; v < n; v++ {
			ps.acts[v] = ps.arena[v*actionStride : v*actionStride : (v+1)*actionStride]
		}
		ps.enabled = make([]bool, n)
		ps.mark = make([]int64, n)
		ps.pending = make([]bool, n)
	}
	ps.count = 0
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		if ps.g.Alive(id) {
			ps.acts[v] = ps.proto.Enabled(id, ps.acts[v][:0])
		} else {
			ps.acts[v] = ps.acts[v][:0]
		}
		on := len(ps.acts[v]) > 0
		ps.enabled[v] = on
		if on {
			ps.count++
		}
	}
	ps.roundOpen = false
	ps.inited = true
}

// shardSeed derives a per-shard RNG seed (s = -1 is the boundary pass)
// with a splitmix64-style mix so nearby seeds do not correlate.
func shardSeed(seed int64, s int) int64 {
	z := uint64(seed) + uint64(s+2)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// isInterior recomputes the disjointness test for v: B(v,R) inside
// v's shard.
func (ps *ParallelSystem) isInterior(v graph.NodeID) bool {
	lo, hi := ps.bounds[ps.shardOf[v]], ps.bounds[ps.shardOf[v]+1]
	ps.infBuf = InfluenceBall(ps.g, v, ps.radius, ps.infBuf[:0])
	for _, u := range ps.infBuf {
		if int(u) < lo || int(u) >= hi {
			return false
		}
	}
	return true
}

// classifyAll recomputes interior membership for every node and
// rebuilds the frontier list.
func (ps *ParallelSystem) classifyAll() {
	for v := range ps.interior {
		ps.interior[v] = ps.isInterior(graph.NodeID(v))
	}
	ps.rebuildFrontier()
}

// rebuildFrontier regenerates the ascending frontier list from the
// interior bitmap, and with it the wave schedule — a frontier change
// always invalidates the coloring.
func (ps *ParallelSystem) rebuildFrontier() {
	ps.frontier = ps.frontier[:0]
	for v, in := range ps.interior {
		if !in {
			ps.frontier = append(ps.frontier, graph.NodeID(v))
		}
	}
	ps.rebuildWaves()
}

// rebuildWaves recomputes the cached wave schedule: a greedy coloring
// of the frontier conflict graph in ascending id order, where two
// frontier nodes conflict iff their distance is ≤ 2R — exactly the
// condition under which their radius-R balls can intersect. Every
// color class ("wave") therefore has pairwise-disjoint balls: its
// moves read and influence disjoint state, commute, and may fire
// concurrently under the paper's daemon model. Ascending-order greedy
// makes the schedule deterministic and each wave's member list
// ascending, which is what keeps the canonical trace order (shard
// 0..k, wave 0, wave 1, …) a pure function of (snapshot, seed,
// workers).
func (ps *ParallelSystem) rebuildWaves() {
	ps.waveSets = ps.waveSets[:0]
	if !ps.waves || len(ps.frontier) == 0 {
		return
	}
	ps.waveRebuilds++
	adj := graph.ConflictAdjacency(ps.g, ps.frontier, 2*ps.radius)
	color := make([]int32, len(ps.frontier))
	for i := range color {
		color[i] = -1
	}
	var used []bool
	for i := range ps.frontier {
		used = used[:0]
		for range ps.waveSets {
			used = append(used, false)
		}
		for _, j := range adj[i] {
			if c := color[j]; c >= 0 {
				used[c] = true
			}
		}
		c := int32(len(ps.waveSets))
		for k, u := range used {
			if !u {
				c = int32(k)
				break
			}
		}
		if int(c) == len(ps.waveSets) {
			// Open a new color class, reusing capacity left over from
			// the previous schedule when there is any.
			if len(ps.waveSets) < cap(ps.waveSets) {
				ps.waveSets = ps.waveSets[:len(ps.waveSets)+1]
				ps.waveSets[c] = ps.waveSets[c][:0]
			} else {
				ps.waveSets = append(ps.waveSets, nil)
			}
		}
		color[i] = c
		ps.waveSets[c] = append(ps.waveSets[c], ps.frontier[i])
	}
}

// Step performs one parallel distributed-daemon step: concurrent
// interior sweeps per shard, a barrier, then the serialized boundary
// pass. It returns the number of moves that fired; 0 with a nil error
// and EnabledCount()==0 means the configuration is terminal (with an
// activation probability below 1 a step can also fire 0 moves by
// chance, so terminality is EnabledCount, not the return value).
func (ps *ParallelSystem) Step() (int, error) {
	ps.ensureInit()
	if !ps.roundOpen {
		ps.startRound = true
		ps.roundOpen = true
	}
	if ps.count == 0 {
		return 0, nil
	}

	// Phase A: concurrent interior sweeps. Workers share ps.epoch as
	// the dirty-stamp value — safe because ownership makes their mark
	// writes disjoint.
	ps.epoch++
	var wg sync.WaitGroup
	for _, sh := range ps.shards {
		wg.Add(1)
		go func(sh *pshard) {
			defer wg.Done()
			sh.sweep()
		}(sh)
	}
	wg.Wait()

	fired := 0
	maxShard := int64(0)
	for _, sh := range ps.shards {
		if sh.breach != graph.None {
			return fired, fmt.Errorf(
				"program: protocol %q influenced node %d outside shard %d [%d,%d) — locality radius %d is under-declared",
				ps.proto.Name(), sh.breach, sh.id, sh.lo, sh.hi, ps.radius)
		}
		w := sh.stepEvals + sh.stepMoves
		if w > maxShard {
			maxShard = w
		}
		ps.work += w
		ps.recentA[sh.id] += w
		ps.shardWork[sh.id] += w
		ps.moves += sh.stepMoves
		fired += int(sh.stepMoves)
		ps.count += sh.countD
		ps.pendingCount += sh.pendingD
		if ps.record {
			ps.trace = append(ps.trace, sh.trace...)
		}
		sh.stepEvals, sh.stepMoves, sh.countD, sh.pendingD = 0, 0, 0, 0
		sh.trace = sh.trace[:0]
	}
	ps.startRound = false

	// Phase B: the boundary pass — serialized sweep, or batched
	// concurrent waves when FrontierWaves is on. Both account bWork
	// (total boundary work) and bSpan (its critical-path share: equal
	// for the serial pass, Σ per-wave max chunk for waves). The phases
	// are barrier-separated, so the step's span is their sum, not the
	// max — phase B cannot overlap a still-running shard.
	var bWork, bSpan int64
	if ps.waves {
		var bFired int
		bWork, bSpan, bFired = ps.waveSweep()
		fired += bFired
		for _, ww := range ps.wwork {
			if ww.breach != graph.None {
				breach, by := ww.breach, ww.breachBy
				ww.breach, ww.breachBy = graph.None, graph.None
				return fired, fmt.Errorf(
					"program: protocol %q influenced node %d outside the radius-%d ball of wave mover %d — locality radius is under-declared",
					ps.proto.Name(), breach, ps.radius, by)
			}
		}
	} else {
		bWork = ps.serialBoundary(&fired)
		bSpan = bWork
	}
	ps.work += bWork
	ps.span += maxShard + bSpan
	ps.spanB += bSpan
	ps.steps++

	if ps.pendingCount == 0 {
		ps.rounds++
		ps.roundOpen = false
	}

	// Work-driven resharding: move the boundaries when the recent
	// per-shard phase-A work is skewed enough and the amortisation
	// window has passed. Runs after all accounting — the decision is a
	// deterministic function of counters the trace already fixes.
	ps.sinceReshard++
	if ps.reshard.enabled() && ps.sinceReshard >= ps.reshard.minInterval() && ps.imbalanced() {
		ps.reshardByWork()
	}
	return fired, nil
}

// serialBoundary is the serialized phase B: sweep the frontier in
// ascending global order, firing enabled nodes under the boundary RNG
// and eagerly repairing caches across shard boundaries. Returns the
// boundary work performed.
func (ps *ParallelSystem) serialBoundary(fired *int) int64 {
	ps.epoch++
	ps.dirty = ps.dirty[:0]
	bWork := int64(0)
	for _, u := range ps.frontier {
		if !ps.enabled[u] {
			continue
		}
		if ps.activation < 1 && ps.brng.Float64() >= ps.activation {
			continue
		}
		a := ps.acts[u][0]
		if len(ps.acts[u]) > 1 {
			a = ps.acts[u][ps.brng.Intn(len(ps.acts[u]))]
		}
		bWork++
		if !ps.proto.Execute(u, a) {
			continue
		}
		*fired++
		ps.moves++
		if ps.record {
			ps.trace = append(ps.trace, Move{Node: u, Action: a})
		}
		if ps.pending[u] {
			ps.pending[u] = false
			ps.pendingCount--
		}
		ps.markDirtySerial(u)
		if ps.inf != nil {
			ps.infBuf = ps.inf.Influence(u, a, ps.infBuf[:0])
			for _, q := range ps.infBuf {
				ps.markDirtySerial(q)
			}
		} else {
			for _, q := range ps.g.Neighbors(u) {
				if q != graph.None {
					ps.markDirtySerial(q)
				}
			}
		}
		bWork += ps.refreshSerial()
	}
	return bWork
}

// waveSweep is the batched phase B: fire each cached wave across the
// worker pool. Per wave, the activation and action draws are made
// serially from the boundary RNG in ascending member order *before*
// dispatch — so the trace stays a pure function of (snapshot, seed,
// workers) no matter how the scheduler interleaves the workers — and
// the selected moves are split into contiguous chunks, one goroutine
// per chunk. Ball disjointness inside a wave is what makes the
// concurrent Execute+refresh race-free: a worker only writes caches
// inside its movers' balls, and two wave members' balls never
// intersect (the breach check enforces exactly this at runtime for
// protocols that declare an Influence set).
//
// The draws deliberately read the post-previous-wave cache: a move in
// wave k may enable or disable a member of wave k+1, and the pre-draw
// sees that — equivalent to the serial sweep's "check enabled at your
// turn" rule, coarsened to wave granularity.
func (ps *ParallelSystem) waveSweep() (bWork, bSpan int64, fired int) {
	for _, wave := range ps.waveSets {
		ps.waveDraw = ps.waveDraw[:0]
		for _, u := range wave {
			if !ps.enabled[u] {
				continue
			}
			if ps.activation < 1 && ps.brng.Float64() >= ps.activation {
				continue
			}
			a := ps.acts[u][0]
			if len(ps.acts[u]) > 1 {
				a = ps.acts[u][ps.brng.Intn(len(ps.acts[u]))]
			}
			ps.waveDraw = append(ps.waveDraw, Move{Node: u, Action: a})
		}
		if len(ps.waveDraw) == 0 {
			continue
		}
		chunks := ps.workers
		if len(ps.waveDraw) < chunks {
			chunks = len(ps.waveDraw)
		}
		ps.epoch++
		if chunks == 1 {
			ps.wwork[0].fire(ps.waveDraw)
		} else {
			var wg sync.WaitGroup
			for c := 0; c < chunks; c++ {
				lo := c * len(ps.waveDraw) / chunks
				hi := (c + 1) * len(ps.waveDraw) / chunks
				wg.Add(1)
				go func(ww *wwave, moves []Move) {
					defer wg.Done()
					ww.fire(moves)
				}(ps.wwork[c], ps.waveDraw[lo:hi])
			}
			wg.Wait()
		}
		waveMax := int64(0)
		for c := 0; c < chunks; c++ {
			ww := ps.wwork[c]
			if ww.work > waveMax {
				waveMax = ww.work
			}
			bWork += ww.work
			fired += int(ww.moves)
			ps.moves += ww.moves
			ps.count += ww.countD
			ps.pendingCount += ww.pendingD
			if ps.record {
				ps.trace = append(ps.trace, ww.trace...)
			}
			ww.work, ww.moves, ww.countD, ww.pendingD = 0, 0, 0, 0
			ww.trace = ww.trace[:0]
		}
		bSpan += waveMax
	}
	return bWork, bSpan, fired
}

// fire executes one contiguous chunk of a wave's pre-drawn moves,
// eagerly repairing the influenced guard caches. The mover's radius-R
// ball is the worker's ownership region: influenced nodes outside it
// are never written — they are recorded as a breach and reported by
// Step, exactly like phase A's shard-ownership check.
func (ww *wwave) fire(moves []Move) {
	ps := ww.ps
	for _, mv := range moves {
		u, a := mv.Node, mv.Action
		ww.work++
		if !ps.proto.Execute(u, a) {
			// Unreachable for a well-declared protocol: the pre-draw
			// saw the guard enabled and no disjoint-ball move can have
			// disabled it since.
			continue
		}
		ww.moves++
		if ps.record {
			ww.trace = append(ww.trace, mv)
		}
		if ps.pending[u] {
			ps.pending[u] = false
			ww.pendingD--
		}
		ww.mark(u)
		if ps.inf != nil {
			ww.ballBuf = InfluenceBall(ps.g, u, ps.radius, ww.ballBuf[:0])
			ww.infBuf = ps.inf.Influence(u, a, ww.infBuf[:0])
			for _, q := range ww.infBuf {
				if !containsNode(ww.ballBuf, q) {
					if ww.breach == graph.None {
						ww.breach, ww.breachBy = q, u
					}
					continue
				}
				ww.mark(q)
			}
		} else {
			// Default locality: influence = closed neighbourhood =
			// the radius-1 ball exactly, so no breach is possible.
			for _, q := range ps.g.Neighbors(u) {
				if q != graph.None {
					ww.mark(q)
				}
			}
		}
		evals, countD, pendingD := ps.refreshList(ww.dirty)
		ww.work += evals
		ww.countD += countD
		ww.pendingD += pendingD
		ww.dirty = ww.dirty[:0]
	}
}

// mark queues u for the worker's next guard refresh. The shared stamp
// array is safe: within a wave, two workers' movers have disjoint
// balls, so their marked sets are disjoint.
func (ww *wwave) mark(u graph.NodeID) {
	if ww.ps.mark[u] != ww.ps.epoch {
		ww.ps.mark[u] = ww.ps.epoch
		ww.dirty = append(ww.dirty, u)
	}
}

// containsNode reports whether ball (a small BFS-ordered slice)
// contains q.
func containsNode(ball []graph.NodeID, q graph.NodeID) bool {
	for _, u := range ball {
		if u == q {
			return true
		}
	}
	return false
}

// imbalanced reports whether the per-shard work accumulated since the
// last boundary move is skewed beyond the policy threshold.
func (ps *ParallelSystem) imbalanced() bool {
	var total, max int64
	for _, w := range ps.recentA {
		total += w
		if w > max {
			max = w
		}
	}
	if total == 0 {
		return false
	}
	mean := float64(total) / float64(ps.workers)
	return float64(max) > ps.reshard.Imbalance*mean
}

// reshardByWork re-partitions the id space so each shard carries an
// equal share of (recent work + one unit per node) — the +1 smoothing
// keeps cold regions from collapsing a shard to zero width — and
// reuses the quiesce path of the explicit Reshard.
func (ps *ParallelSystem) reshardByWork() {
	n := ps.g.N()
	total := float64(n)
	for s := 0; s < ps.workers; s++ {
		total += float64(ps.recentA[s])
	}
	per := total / float64(ps.workers)
	bounds := make([]int, ps.workers+1)
	bounds[ps.workers] = n
	k := 1
	cum := 0.0
	for v := 0; v < n && k < ps.workers; v++ {
		s := ps.shardOf[v]
		width := ps.bounds[s+1] - ps.bounds[s]
		cum += 1 + float64(ps.recentA[s])/float64(width)
		for k < ps.workers && cum >= float64(k)*per {
			bounds[k] = v + 1
			k++
		}
	}
	for ; k < ps.workers; k++ {
		bounds[k] = n
	}
	ps.reshards++
	ps.applyBounds(bounds)
}

// sweep is one worker's phase A: fire every enabled interior node of
// the shard in ascending order, eagerly repairing the influenced guard
// caches (ownership keeps every touched index inside the shard).
func (sh *pshard) sweep() {
	ps := sh.ps
	if ps.startRound {
		for v := sh.lo; v < sh.hi; v++ {
			if ps.enabled[v] && !ps.pending[v] {
				ps.pending[v] = true
				sh.pendingD++
			}
		}
	}
	for v := sh.lo; v < sh.hi; v++ {
		if !ps.enabled[v] || !ps.interior[v] {
			continue
		}
		if ps.activation < 1 && sh.rng.Float64() >= ps.activation {
			continue
		}
		id := graph.NodeID(v)
		a := ps.acts[v][0]
		if len(ps.acts[v]) > 1 {
			a = ps.acts[v][sh.rng.Intn(len(ps.acts[v]))]
		}
		if !ps.proto.Execute(id, a) {
			// The cache invariant makes this unreachable for a
			// well-declared protocol; fire nothing and move on.
			continue
		}
		sh.stepMoves++
		if ps.record {
			sh.trace = append(sh.trace, Move{Node: id, Action: a})
		}
		if ps.pending[v] {
			ps.pending[v] = false
			sh.pendingD--
		}
		sh.mark(id)
		if ps.inf != nil {
			sh.infBuf = ps.inf.Influence(id, a, sh.infBuf[:0])
			for _, q := range sh.infBuf {
				sh.mark(q)
			}
		} else {
			for _, q := range ps.g.Neighbors(id) {
				if q != graph.None {
					sh.mark(q)
				}
			}
		}
		sh.refresh()
	}
}

// mark queues u for guard re-evaluation. A node outside the shard is
// never written (that would be the data race ownership exists to
// prevent); it is recorded as a breach and reported by Step.
func (sh *pshard) mark(u graph.NodeID) {
	if int(u) < sh.lo || int(u) >= sh.hi {
		if sh.breach == graph.None {
			sh.breach = u
		}
		return
	}
	if sh.ps.mark[u] != sh.ps.epoch {
		sh.ps.mark[u] = sh.ps.epoch
		sh.dirty = append(sh.dirty, u)
	}
}

// refreshList re-evaluates the guards of the given dirty nodes and
// re-arms their dedup stamps, returning the evaluation count and the
// enabled/pending deltas. It is the shared core of the phase-A shard
// refresh, the wave refresh and the serial refresh; each caller's
// ownership argument (shard ranges, disjoint balls, or quiescence)
// makes its dirty set disjoint from every concurrent caller's, so the
// per-node writes never race.
//
// The stamp re-arm matters: a later move of the same epoch may
// influence these nodes again, and the refresh just performed must not
// swallow that re-evaluation. Epochs start at 1, so 0 never matches.
func (ps *ParallelSystem) refreshList(dirty []graph.NodeID) (evals int64, countD, pendingD int) {
	for _, u := range dirty {
		was := ps.enabled[u]
		if ps.g.Alive(u) {
			ps.acts[u] = ps.proto.Enabled(u, ps.acts[u][:0])
			evals++
		} else {
			ps.acts[u] = ps.acts[u][:0]
		}
		now := len(ps.acts[u]) > 0
		if now != was {
			ps.enabled[u] = now
			if now {
				countD++
			} else {
				countD--
			}
		}
		if !now && ps.pending[u] {
			ps.pending[u] = false
			pendingD--
		}
	}
	for _, u := range dirty {
		ps.mark[u] = 0
	}
	return evals, countD, pendingD
}

// refresh re-evaluates the guards of the shard's dirty nodes, keeping
// the cache invariant inside the shard during phase A.
func (sh *pshard) refresh() {
	evals, countD, pendingD := sh.ps.refreshList(sh.dirty)
	sh.stepEvals += evals
	sh.countD += countD
	sh.pendingD += pendingD
	sh.dirty = sh.dirty[:0]
}

// markDirtySerial queues u for the serial refresh (boundary pass and
// ApplyDelta) — any shard, no ownership restriction.
func (ps *ParallelSystem) markDirtySerial(u graph.NodeID) {
	if ps.mark[u] != ps.epoch {
		ps.mark[u] = ps.epoch
		ps.dirty = append(ps.dirty, u)
	}
}

// refreshSerial re-evaluates the guards of the serial dirty set and
// returns the number of evaluations performed.
func (ps *ParallelSystem) refreshSerial() int64 {
	evals, countD, pendingD := ps.refreshList(ps.dirty)
	ps.count += countD
	ps.pendingCount += pendingD
	ps.dirty = ps.dirty[:0]
	return evals
}

// ApplyDelta incorporates one topology mutation — already applied to
// the protocol's graph — into the running parallel system. Workers
// only exist inside Step, so the call always finds the engine
// quiesced; it runs the protocol's TopologyChanged hook, repairs the
// guard cache for the touched set plus the returned influence ball
// (appending cache slots when the delta grew the id space — new ids
// join the last shard), and re-classifies interior/frontier membership
// inside the radius-R ball of the touched set, since only nodes that
// close to the mutation can change sides of the disjointness test.
func (ps *ParallelSystem) ApplyDelta(d graph.Delta) {
	var ball []graph.NodeID
	if ta, ok := ps.proto.(TopologyAware); ok {
		ps.infBuf = ta.TopologyChanged(d, ps.infBuf[:0])
		ball = ps.infBuf
	} else {
		ps.infBuf = ps.infBuf[:0]
		for _, u := range d.Touched {
			ps.infBuf = InfluenceClosedNeighborhood(ps.g, u, ps.infBuf)
		}
		ball = ps.infBuf
	}
	if n := ps.g.N(); n != ps.seenN {
		if ps.inited {
			ps.grow(n)
		}
		ps.seenN = n
	}
	if !ps.inited {
		return
	}
	ps.epoch++
	ps.dirty = ps.dirty[:0]
	for _, u := range d.Touched {
		ps.markDirtySerial(u)
	}
	for _, u := range ball {
		ps.markDirtySerial(u)
	}
	ps.work += ps.refreshSerial()
	ps.reclassify(d.Touched)
}

// grow appends cache and geometry slots for a grown id space: the new
// ids extend the last shard, the arena doubles when exhausted, and the
// new slots start disabled until their deltas' refresh evaluates them
// — amortised O(1) per appended node, the same growth contract as
// System.growCaches.
func (ps *ParallelSystem) grow(n int) {
	old := len(ps.acts)
	if need := n * actionStride; need > cap(ps.arena) {
		newCap := 2 * cap(ps.arena)
		if newCap < need {
			newCap = need
		}
		arena := make([]ActionID, newCap)
		for v := 0; v < old; v++ {
			slot := arena[v*actionStride : v*actionStride : (v+1)*actionStride]
			ps.acts[v] = append(slot, ps.acts[v]...)
		}
		ps.arena = arena
	}
	last := int32(ps.workers - 1)
	for v := old; v < n; v++ {
		ps.acts = append(ps.acts, ps.arena[v*actionStride:v*actionStride:(v+1)*actionStride])
		ps.enabled = append(ps.enabled, false)
		ps.mark = append(ps.mark, 0)
		ps.pending = append(ps.pending, false)
		ps.shardOf = append(ps.shardOf, last)
		// A fresh node is isolated, so its radius ball is itself:
		// interior to the last shard until an AddEdge delta
		// re-classifies it.
		ps.interior = append(ps.interior, true)
	}
	ps.bounds[ps.workers] = n
	ps.shards[ps.workers-1].hi = n
}

// reclassify recomputes interior membership for every node within
// radius R of the touched set and rebuilds the frontier list when any
// membership flipped. Membership can only flip within R of a touched
// node (the disjointness test reads a radius-R ball), so a delta whose
// R ball confirms every classification skips the rebuild entirely —
// ReclassSkips counts those, the cheap common case for deep-interior
// churn on a relabeled graph.
//
// The wave schedule needs a strictly wider test: an edge flap can
// shorten or lengthen paths *between* two frontier nodes without
// flipping anyone's membership, changing the distance-2R conflict
// graph. Any such conflict change runs through a touched endpoint, so
// it implies a frontier node within 2R of the touched set — when the
// 2R ball contains no frontier node, the cached coloring stays valid
// and is kept; otherwise it is recomputed even if the frontier list
// itself did not change.
func (ps *ParallelSystem) reclassify(touched []graph.NodeID) {
	changed := false
	for _, t := range touched {
		ps.classBuf = InfluenceBall(ps.g, t, ps.radius, ps.classBuf[:0])
		for _, u := range ps.classBuf {
			in := ps.isInterior(u)
			if in != ps.interior[u] {
				ps.interior[u] = in
				changed = true
			}
		}
	}
	if changed {
		ps.frontierRebuilds++
		ps.rebuildFrontier()
		return
	}
	if ps.waves {
		for _, t := range touched {
			ps.classBuf = InfluenceBall(ps.g, t, 2*ps.radius, ps.classBuf[:0])
			for _, u := range ps.classBuf {
				if !ps.interior[u] {
					ps.rebuildWaves()
					return
				}
			}
		}
	}
	ps.reclassSkips++
}

// Reshard re-partitions the id space evenly across the workers and
// re-classifies every node — O(n·R). Call it after a growth campaign
// has bloated the last shard; without a ReshardPolicy the engine never
// reshards implicitly, so step costs stay predictable.
func (ps *ParallelSystem) Reshard() {
	if !ps.inited {
		return
	}
	n := ps.g.N()
	bounds := make([]int, ps.workers+1)
	for s := 0; s <= ps.workers; s++ {
		bounds[s] = s * n / ps.workers
	}
	ps.applyBounds(bounds)
}

// applyBounds installs a new shard partition (monotone bounds with
// bounds[0]=0 and bounds[workers]=n), re-classifies every node and
// resets the recent-work window. Callers run between steps, so no
// worker observes the move — per-shard RNG streams are untouched, and
// determinism survives because the triggering counters are themselves
// pure functions of (snapshot, seed, workers).
func (ps *ParallelSystem) applyBounds(bounds []int) {
	copy(ps.bounds, bounds)
	for s := 0; s < ps.workers; s++ {
		ps.shards[s].lo = ps.bounds[s]
		ps.shards[s].hi = ps.bounds[s+1]
		for v := ps.bounds[s]; v < ps.bounds[s+1]; v++ {
			ps.shardOf[v] = int32(s)
		}
	}
	for s := range ps.recentA {
		ps.recentA[s] = 0
	}
	ps.sinceReshard = 0
	ps.classifyAll()
}

// Invalidate discards the guard cache and round state; the next Step
// re-scans every guard. Call it after mutating the protocol's
// configuration behind the engine's back (Restore, Randomize,
// CorruptNode), exactly as with System.
func (ps *ParallelSystem) Invalidate() {
	ps.inited = false
	ps.roundOpen = false
	if ps.pendingCount > 0 {
		for v := range ps.pending {
			ps.pending[v] = false
		}
		ps.pendingCount = 0
	}
}

// RunUntil steps the system until pred returns true, the configuration
// becomes terminal, or maxSteps parallel steps have been taken. pred
// runs serially between steps.
func (ps *ParallelSystem) RunUntil(pred func() bool, maxSteps int64) (RunResult, error) {
	start := RunResult{Moves: ps.moves, Steps: ps.steps, Rounds: ps.rounds}
	mk := func(conv bool) RunResult {
		return RunResult{
			Converged: conv,
			Moves:     ps.moves - start.Moves,
			Steps:     ps.steps - start.Steps,
			Rounds:    ps.rounds - start.Rounds,
		}
	}
	if pred() {
		return mk(true), nil
	}
	for i := int64(0); i < maxSteps; i++ {
		_, err := ps.Step()
		if err != nil {
			return mk(false), err
		}
		if pred() {
			return mk(true), nil
		}
		if ps.count == 0 {
			return mk(false), nil
		}
	}
	return mk(false), nil
}

// RunUntilLegitimate runs until the protocol's legitimacy predicate
// holds, checking it serially between parallel steps (incremental
// witnesses keep global counters and are therefore a serial-phase
// tool; the parallel engine never arms one).
func (ps *ParallelSystem) RunUntilLegitimate(maxSteps int64) (RunResult, error) {
	leg, ok := ps.proto.(Legitimacy)
	if !ok {
		return RunResult{}, fmt.Errorf("program: protocol %q has no legitimacy predicate", ps.proto.Name())
	}
	return ps.RunUntil(leg.Legitimate, maxSteps)
}
