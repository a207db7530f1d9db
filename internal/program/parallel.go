package program

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
//     is fired in phase B, after the shards — cross-shard conflicts
//     are thereby excluded by the disjointness test, not assumed
//     away, and a protocol that under-declares its radius is caught by
//     the ownership breach check below.
//   - Each parallel step is: phase A — every worker sweeps its shard
//     in ascending id order, fires each enabled interior node (subject
//     to the distributed daemon's seeded activation draw) and eagerly
//     repairs the guard cache of the influenced ball, which ownership
//     confines to its own shard; barrier; phase B — the frontier,
//     fired wave by wave. A wave is a set of frontier nodes with
//     pairwise-disjoint radius-R balls; the paper's daemon lets such a
//     set move simultaneously. By default every wave is one frontier
//     node, in ascending order, fired by one worker that owns every
//     cache slot: a serialized boundary pass. With
//     ParallelConfig.FrontierWaves the waves are the color classes of
//     a greedy coloring (below) and each fires across the worker pool.
//     The equivalent serial interleaving is canonical: shard 0's move
//     sequence, then shard 1's, …, then wave 0's ascending, wave 1's,
//     …. Replaying that sequence through Protocol.Execute from the
//     same initial configuration fires every move and reproduces the
//     final configuration bit-for-bit (the differential suite checks
//     exactly this).
//   - Wave scheduling: with FrontierWaves the engine greedily colors
//     the frontier conflict graph — two frontier nodes conflict iff
//     their distance is ≤ 2R, the exact condition for their radius-R
//     balls to intersect (graph.ConflictAdjacency) — and caches the
//     color classes as waves, invalidated with the same locality
//     discipline as the interior/frontier classification itself. Per
//     step and wave, the activation/action draws are made serially
//     from the boundary RNG in ascending member order, then the chosen
//     moves are fired across the worker pool; disjoint balls make the
//     concurrent executes and cache repairs race-free by the same
//     symmetry argument that makes interior moves of different shards
//     commute. A protocol that under-declares its radius is caught
//     here too: an influence set escaping the mover's ball is a
//     breach, never a write.
//   - Determinism: shard s draws from its own rand.Rand seeded from
//     (Seed, s); phase B has its own, consumed in ascending member
//     order wave after wave (wave order is itself a deterministic
//     function of the topology). Same seed + same worker count + same
//     wave setting ⇒ bit-identical trace; a different worker count —
//     or toggling waves — is a different (still legal) schedule.
//
// The guard cache is the one System uses (guards.go), with the same
// invariant; the engine adds only its shard geometry, waves, per-worker
// dirty lists and tallies, and phase A's per-shard pending marking.
//
// Topology churn composes by quiescence: worker goroutines only run
// inside Step, so ApplyDelta always runs with no worker active. It repairs
// the guard cache locally (the same ApplyDelta head as System's, growth
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
// per-shard phase-A count plus the phase-B critical path, Σ over waves
// of the largest per-worker chunk — with single-node waves, the whole
// boundary count. (The two phases are barrier-separated, so the step
// span is their sum, not their max.)
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
	// FrontierWaves batches phase B into multi-node waves: the
	// frontier is partitioned by a greedy distance-2R coloring into
	// sets with pairwise-disjoint radius-R balls, and each wave fires
	// across the worker pool. Off by default, when every wave is a
	// single frontier node and phase B is a serialized sweep; see the
	// wave-scheduling notes above.
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
// distributed-daemon steps. It schedules from the same guard cache as
// System, under the same invariant: after every Step and ApplyDelta,
// each node's cached action list equals a fresh Protocol.Enabled. It
// is not safe for concurrent use by multiple goroutines — parallelism
// lives inside Step, and every other method (ApplyDelta, Legitimate
// checks, accessors) must be called from the owning goroutine between
// steps, exactly where the engine quiesces.
type ParallelSystem struct {
	// The guard cache. Its dirty stamps are shared by the workers,
	// whose owned regions keep concurrent stamp writes disjoint.
	guards
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
	pool     []*worker      // worker s sweeps shard s and fires wave chunk s
	brng     *rand.Rand     // phase-B activation/action draws

	// Wave schedule: waveSets partitions the frontier into greedy
	// distance-2R color classes (ascending ids within each wave),
	// cached like the interior/frontier classification and recomputed
	// only when the frontier or the topology near it changes.
	waveSets [][]graph.NodeID
	waveDraw []Move // per-wave pre-drawn (node, action) firing list

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

	infBuf   []graph.NodeID // isInterior scratch
	classBuf []graph.NodeID // reclassify scratch, disjoint from infBuf
	// seen is the visited set of both balls. Serial phases only; the
	// nested isInterior may reset it because reclassify reads its own
	// ball from classBuf.
	seen graph.Marks

	// startRound asks phase A to mark the round's pending set, each
	// worker for its own shard.
	startRound bool

	moves  int64
	steps  int64
	rounds int64

	work  int64 // Σ guard evals + moves, all phases
	span  int64 // Σ per-step (max shard phase-A work + phase-B critical path)
	spanB int64 // phase-B share of span (Σ per-wave max chunk)

	trace []Move
}

// region names the nodes a firing worker owns: the only guard-cache
// slots it may write. Disjoint regions are what let workers fire
// concurrently without locks.
type region int

const (
	ownShard region = iota // the worker's shard [lo,hi), in phase A
	ownBall                // the mover's radius-R ball, in a multi-node wave
	ownAll                 // every node: single-node waves and ApplyDelta, with no other worker active
)

// worker is one member of the pool: a contiguous shard range and its
// RNG for phase A, plus the scratch and step counters that every
// firing shares. Its fields are touched only by the worker while it
// runs and by the owning goroutine between runs.
type worker struct {
	ps     *ParallelSystem
	lo, hi int
	rng    *rand.Rand

	dirty  []graph.NodeID
	infBuf []graph.NodeID
	ball   []graph.NodeID
	seen   graph.Marks // membership of ball
	trace  []Move

	work     int64 // guard evaluations + executed moves since the last collect
	moves    int64
	countD   int
	pendingD int
	breach   graph.NodeID // first influenced node outside the owned region; None if clean
	breachBy graph.NodeID // the mover whose influence set named it
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
	ps := &ParallelSystem{
		guards:     newGuards(proto),
		radius:     ProtocolRadius(proto),
		workers:    w,
		seed:       cfg.Seed,
		activation: act,
		record:     cfg.Record,
		waves:      cfg.FrontierWaves,
		reshard:    cfg.Reshard,
		bounds:     make([]int, w+1),
		pool:       make([]*worker, w),
		brng:       rand.New(rand.NewSource(shardSeed(cfg.Seed, -1))),
		recentA:    make([]int64, w),
		shardWork:  make([]int64, w),
	}
	for s := range ps.pool {
		ps.pool[s] = &worker{
			ps:       ps,
			rng:      rand.New(rand.NewSource(shardSeed(cfg.Seed, s))),
			breach:   graph.None,
			breachBy: graph.None,
		}
	}
	return ps
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
// largest per-shard phase-A work plus the phase-B critical path. With
// one worker span equals work; the ratio work/span is the schedule's
// available parallelism, independent of wall-clock and core count.
func (ps *ParallelSystem) SpanUnits() int64 { return ps.span }

// Trace returns the recorded move trace in canonical serialization
// order (per step: shard 0's moves, shard 1's, …, then wave 0's,
// wave 1's, …).
// Empty unless ParallelConfig.Record was set.
func (ps *ParallelSystem) Trace() []Move { return ps.trace }

// FrontierSize returns how many live nodes are currently classified
// frontier (fired by phase B, one node at a time or in waves when
// FrontierWaves is on).
func (ps *ParallelSystem) FrontierSize() int {
	ps.ensureInit()
	return len(ps.frontier)
}

// WaveCount returns how many waves the current frontier schedule has —
// the chromatic number the greedy distance-2R coloring achieved. Zero
// when FrontierWaves is off (phase B then fires uncached single-node
// waves) or the frontier is empty.
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
// Σ over waves of the largest per-worker chunk work — the whole
// boundary work when waves are single nodes (FrontierWaves off). The
// seam cost T17 measures.
func (ps *ParallelSystem) BoundarySpanUnits() int64 { return ps.spanB }

// EnabledNodes appends the ids of all currently enabled processors in
// ascending order and returns the extended slice.
func (ps *ParallelSystem) EnabledNodes(buf []graph.NodeID) []graph.NodeID {
	ps.ensureInit()
	return ps.enabledNodes(buf)
}

// EnabledCount returns the number of currently enabled processors.
func (ps *ParallelSystem) EnabledCount() int {
	ps.ensureInit()
	return ps.count
}

// Silent reports whether no action is enabled anywhere.
func (ps *ParallelSystem) Silent() bool { return ps.EnabledCount() == 0 }

// ensureInit builds the shard geometry, reusing its arrays, and
// bootstraps the guard cache with one full scan.
func (ps *ParallelSystem) ensureInit() {
	if ps.inited {
		return
	}
	n := ps.g.N()
	for s := 0; s <= ps.workers; s++ {
		ps.bounds[s] = s * n / ps.workers
	}
	ps.shardOf = slices.Grow(ps.shardOf[:0], n)[:n]
	for s := 0; s < ps.workers; s++ {
		for v := ps.bounds[s]; v < ps.bounds[s+1]; v++ {
			ps.shardOf[v] = int32(s)
		}
	}
	ps.interior = slices.Grow(ps.interior[:0], n)[:n]
	ps.classifyAll()
	// Seed restarts each stream exactly as a fresh rand.New would.
	for s, w := range ps.pool {
		w.lo, w.hi = ps.bounds[s], ps.bounds[s+1]
		w.rng.Seed(shardSeed(ps.seed, s))
	}
	ps.brng.Seed(shardSeed(ps.seed, -1))
	for s := range ps.recentA {
		ps.recentA[s] = 0
	}
	ps.sinceReshard = 0
	ps.bootstrap()
}

// shardSeed derives a per-shard RNG seed (s = -1 is phase B)
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
	ps.infBuf = InfluenceBall(ps.g, v, ps.radius, &ps.seen, ps.infBuf[:0])
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
// interior sweeps per shard, a barrier, then the frontier wave by
// wave. It returns the number of moves that fired; 0 with a nil error
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
	moves0 := ps.moves

	// Phase A: concurrent interior sweeps. Workers share ps.epoch as
	// the dirty-stamp value — safe because ownership makes their stamp
	// writes disjoint.
	ps.epoch++
	var wg sync.WaitGroup
	for _, w := range ps.pool {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.sweep()
		}(w)
	}
	wg.Wait()
	maxShard := int64(0)
	for s, w := range ps.pool {
		work := w.collect()
		maxShard = max(maxShard, work)
		ps.recentA[s] += work
		ps.shardWork[s] += work
	}
	if err := ps.breached(ownShard); err != nil {
		return int(ps.moves - moves0), err
	}
	ps.startRound = false

	// Phase B. The phases are barrier-separated, so the step's span is
	// their sum, not the max — phase B cannot overlap a still-running
	// shard.
	own := ownAll
	if ps.waves {
		own = ownBall
	}
	bSpan := ps.fireWaves(own)
	if err := ps.breached(own); err != nil {
		return int(ps.moves - moves0), err
	}
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
	return int(ps.moves - moves0), nil
}

// fireWaves is phase B: it fires the frontier wave by wave, each wave's
// moves in region own, and returns the phase's span — Σ over waves of
// the largest per-worker chunk work. With FrontierWaves off every
// frontier node is a wave of its own, in ascending order, so phase B
// is a serialized sweep whose span is its whole work.
//
// Per wave, the activation and action draws are made serially from
// the boundary RNG in ascending member order *before* dispatch — so
// the trace stays a pure function of (snapshot, seed, workers) no
// matter how the scheduler interleaves the workers — and the selected
// moves are split into contiguous chunks, one goroutine per chunk. The
// draws read the post-previous-wave cache: a move in wave k may enable
// or disable a member of wave k+1, and the draw sees that. With
// single-node waves this is exactly "check enabled at your turn".
func (ps *ParallelSystem) fireWaves(own region) (span int64) {
	waves := len(ps.frontier)
	if ps.waves {
		waves = len(ps.waveSets)
	}
	fire := func(w *worker, moves []Move) {
		for _, mv := range moves {
			w.fire(mv.Node, mv.Action, own)
		}
	}
	for i := 0; i < waves; i++ {
		wave := ps.frontier[i : i+1]
		if ps.waves {
			wave = ps.waveSets[i]
		}
		ps.waveDraw = ps.waveDraw[:0]
		for _, u := range wave {
			if !ps.enabled[u] {
				continue
			}
			if a, ok := ps.draw(u, ps.brng); ok {
				ps.waveDraw = append(ps.waveDraw, Move{Node: u, Action: a})
			}
		}
		if len(ps.waveDraw) == 0 {
			continue
		}
		chunks := min(ps.workers, len(ps.waveDraw))
		ps.epoch++
		if chunks == 1 {
			fire(ps.pool[0], ps.waveDraw)
		} else {
			var wg sync.WaitGroup
			for c := 0; c < chunks; c++ {
				lo := c * len(ps.waveDraw) / chunks
				hi := (c + 1) * len(ps.waveDraw) / chunks
				wg.Add(1)
				go func(w *worker, moves []Move) {
					defer wg.Done()
					fire(w, moves)
				}(ps.pool[c], ps.waveDraw[lo:hi])
			}
			wg.Wait()
		}
		waveMax := int64(0)
		for _, w := range ps.pool[:chunks] {
			waveMax = max(waveMax, w.collect())
		}
		span += waveMax
	}
	return span
}

// draw makes the distributed daemon's choice for the enabled node u
// from rng: the activation draw, then — when u has several enabled
// actions — the action draw.
func (ps *ParallelSystem) draw(u graph.NodeID, rng *rand.Rand) (ActionID, bool) {
	if ps.activation < 1 && rng.Float64() >= ps.activation {
		return 0, false
	}
	acts := ps.acts[u]
	if len(acts) > 1 {
		return acts[rng.Intn(len(acts))], true
	}
	return acts[0], true
}

// breached reports the first ownership breach a worker recorded while
// firing in region own, and clears every worker's breach.
func (ps *ParallelSystem) breached(own region) error {
	var err error
	for s, w := range ps.pool {
		if w.breach != graph.None && err == nil {
			if own == ownShard {
				err = fmt.Errorf(
					"program: protocol %q influenced node %d outside shard %d [%d,%d) — locality radius %d is under-declared",
					ps.proto.Name(), w.breach, s, w.lo, w.hi, ps.radius)
			} else {
				err = fmt.Errorf(
					"program: protocol %q influenced node %d outside the radius-%d ball of wave mover %d — locality radius is under-declared",
					ps.proto.Name(), w.breach, ps.radius, w.breachBy)
			}
		}
		w.breach, w.breachBy = graph.None, graph.None
	}
	return err
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
// the shard in ascending order, drawing from the shard's own RNG.
func (w *worker) sweep() {
	ps := w.ps
	if ps.startRound {
		for v := w.lo; v < w.hi; v++ {
			if ps.enabled[v] && !ps.pending[v] {
				ps.pending[v] = true
				w.pendingD++
			}
		}
	}
	for v := w.lo; v < w.hi; v++ {
		if !ps.enabled[v] || !ps.interior[v] {
			continue
		}
		if a, ok := ps.draw(graph.NodeID(v), w.rng); ok {
			w.fire(graph.NodeID(v), a, ownShard)
		}
	}
}

// fire executes (u, a) and eagerly repairs the guard caches it
// influences. Only nodes in the owned region are written: an
// influenced node outside it is recorded as a breach, which Step
// reports as an under-declared locality radius, instead of racing
// another worker.
func (w *worker) fire(u graph.NodeID, a ActionID, own region) {
	ps := w.ps
	if !ps.proto.Execute(u, a) {
		// Unreachable for a well-declared protocol: the cache saw the
		// guard enabled, and no move outside the owner's knowledge can
		// have disabled it since.
		return
	}
	w.work++
	w.moves++
	if ps.record {
		w.trace = append(w.trace, Move{Node: u, Action: a})
	}
	w.pendingD += ps.discharge(u)
	if ps.inf == nil {
		// Default locality: influence = closed neighbourhood, inside
		// the radius-R ball and so inside every owned region.
		own = ownAll
	} else if own == ownBall {
		w.ball = InfluenceBall(ps.g, u, ps.radius, &w.seen, w.ball[:0])
	}
	w.infBuf = ps.influence(u, a, w.infBuf[:0])
	for _, q := range w.infBuf {
		w.mark(q, u, own)
	}
	w.refresh()
}

// mark queues q for the worker's next refresh when q lies in the owned
// region; otherwise it records the first breach and writes nothing.
func (w *worker) mark(q, by graph.NodeID, own region) {
	owned := true
	switch own {
	case ownShard:
		owned = w.lo <= int(q) && int(q) < w.hi
	case ownBall:
		owned = w.seen.Has(q)
	}
	if !owned {
		if w.breach == graph.None {
			w.breach, w.breachBy = q, by
		}
		return
	}
	w.dirty = w.ps.queue(q, w.dirty)
}

// refresh re-evaluates the guards of the worker's dirty nodes and
// re-arms their stamps. Ownership makes the dirty set disjoint from
// every concurrent worker's, so the per-node writes never race.
//
// The stamp re-arm matters: a later move of the same epoch may
// influence these nodes again, and the refresh just performed must not
// swallow that re-evaluation. Epochs start at 1, so 0 never matches.
func (w *worker) refresh() {
	ps := w.ps
	for _, u := range w.dirty {
		ps.stamp[u] = 0
		if ps.g.Alive(u) {
			w.work++
		}
		dCount, dPending := ps.refresh(u)
		w.countD += dCount
		w.pendingD += dPending
	}
	w.dirty = w.dirty[:0]
}

// collect folds the worker's counters and trace into the system,
// resets them, and returns the work the worker did since the last
// collect.
func (w *worker) collect() int64 {
	ps, work := w.ps, w.work
	ps.work += work
	ps.moves += w.moves
	ps.count += w.countD
	ps.pendingCount += w.pendingD
	ps.trace = append(ps.trace, w.trace...)
	w.work, w.moves, w.countD, w.pendingD = 0, 0, 0, 0
	w.trace = w.trace[:0]
	return work
}

// ApplyDelta incorporates one topology mutation — already applied to
// the protocol's graph — into the running parallel system. Worker
// goroutines only run inside Step, so the call always finds the
// engine quiesced; it runs the guard cache's ApplyDelta head (the
// protocol's TopologyChanged hook, and slot growth when the delta grew
// the id space — new ids join the last shard), repairs the cache for
// the touched set plus the returned influence ball through worker 0,
// and re-classifies interior/frontier membership inside the radius-R
// ball of the touched set, since only nodes that close to the mutation
// can change sides of the disjointness test.
func (ps *ParallelSystem) ApplyDelta(d graph.Delta) {
	w := ps.pool[0]
	var grew bool
	w.dirty, grew = ps.applyDelta(d, w.dirty)
	if !ps.inited {
		return
	}
	if grew {
		// The new ids extend the last shard. A fresh node is isolated,
		// so its radius ball is itself: interior until an AddEdge delta
		// re-classifies it.
		for v := len(ps.shardOf); v < ps.seenN; v++ {
			ps.shardOf = append(ps.shardOf, int32(ps.workers-1))
			ps.interior = append(ps.interior, true)
		}
		ps.bounds[ps.workers] = ps.seenN
		ps.pool[ps.workers-1].hi = ps.seenN
	}
	w.refresh()
	w.collect()
	ps.reclassify(d.Touched)
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
		ps.classBuf = InfluenceBall(ps.g, t, ps.radius, &ps.seen, ps.classBuf[:0])
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
			ps.classBuf = InfluenceBall(ps.g, t, 2*ps.radius, &ps.seen, ps.classBuf[:0])
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
		ps.pool[s].lo = ps.bounds[s]
		ps.pool[s].hi = ps.bounds[s+1]
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
func (ps *ParallelSystem) Invalidate() { ps.invalidate() }

// RunUntil steps the system until pred returns true, the configuration
// becomes terminal, or maxSteps parallel steps have been taken. pred
// runs serially between steps.
func (ps *ParallelSystem) RunUntil(pred func() bool, maxSteps int64) (RunResult, error) {
	return runUntil(ps, pred, maxSteps)
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
