// Package netorient is a faithful, production-quality reproduction of
// "Self-Stabilizing Network Orientation Algorithms in Arbitrary Rooted
// Networks" (Gurumurthy & Datta, ICDCS 2000).
//
// The library implements the paper's two self-stabilizing network
// orientation protocols — DFTNO (built on a depth-first token circulation
// substrate) and STNO (built on a spanning tree substrate) — together with
// every substrate they depend on, a guarded-command execution model with
// pluggable daemons, an exhaustive model checker for self-stabilization
// properties, chordal sense-of-direction utilities, fault injection, and a
// benchmark harness that regenerates every figure and complexity claim of
// the paper's evaluation.
//
// # Execution engine
//
// Simulations run on an event-driven incremental scheduler
// (internal/program.System). Both it and the parallel engine
// (program.ParallelSystem, below) schedule from one guard cache: every
// node's enabled-action list, re-evaluated after a move at v only for
// v's closed neighbourhood — or the wider set a protocol declares
// through the program.Influencer locality contract (STNO over a DFS
// tree reads two hops) — and after a topology delta only for its
// touched set and influence ball. Its invariant: after every step and
// every delta, each node's cached list equals a fresh evaluation of
// its guards. It makes the guard work of a daemon step O(Δ) instead
// of Θ(n); an out-of-band configuration change (restore, randomize,
// corrupt) breaks it until Invalidate, after which one full scan
// rebuilds the cache.
//
// The runner's two hot-path contracts are sublinear as well:
//
//   - Daemons receive a program.EnabledSet — an indexable, ascending
//     view of the enabled processors (Len, At(i), Actions(i, buf),
//     O(1) Contains) backed by a Fenwick index over the cached enabled
//     bits — instead of a materialised candidate slice. A sampling
//     daemon (central, round-robin, deterministic) selects in O(log n)
//     queries, so a step costs O(Δ·log n) end to end; enumerate-all
//     daemons (synchronous, distributed) pay O(#enabled·log n), which
//     is inherent to their scheduling model.
//
//   - RunUntilLegitimate consults a program.Witness when the protocol
//     provides one: an incrementally-maintained legitimacy witness
//     (per-node violation counters refreshed from the same dirty sets
//     the guard cache uses) that decides L_P in O(1) instead of an
//     O(n) Legitimate() scan per step. All five protocol stacks — the
//     token circulator, both spanning trees, DFTNO and STNO — ship
//     witnesses. A layered stack (DFTNO, STNO, the failover wrapper)
//     embeds one program.Layer, the one composition rule: it keeps the
//     layer's violation counter over the layer's own per-node clause
//     and conjoins it with the inner stack's verdict, as it composes
//     guards, statements, snapshots, corruption and topology repair.
//     program.CheckWitness audits every witness
//     against its O(n) predicate on random executions. DFTNO's
//     legitimacy itself is a recomputable cycle invariant (Max values
//     determined by the traversal position exposed through the token
//     Substrate's introspection queries), replacing the recorded
//     per-cycle snapshot map that cost O(n²) bytes and made 64k-node
//     stacks unconstructible.
//
// Steps allocate nothing in steady state: every visited set an engine
// needs for a ball or a search is a graph.Marks it owns, not a pooled
// one, so the zero-allocation gates are exact, under -race too. Both
// contracts produce bit-identical executions (moves, steps, rounds,
// final configuration) to the full-scan reference runner, which
// program.NewSystemFullScan keeps available as a differential-testing
// oracle. Every protocol
// package declares and documents its influence audit;
// program.CheckLocality verifies the declarations empirically, and the
// differential suite in internal/program locksteps both schedulers and
// both daemon APIs across every protocol × daemon combination.
// Experiments T11 and T12 (BENCH_scheduler.json) record the resulting
// speedups on graphs up to 65 536 nodes; CI fails on >2× step-latency
// regressions against that committed baseline.
//
// # Parallel execution
//
// program.ParallelSystem shards the execution across a worker pool,
// exploiting the distributed daemon's own semantics: any enabled
// subset may move simultaneously, so the engine's job is not to
// emulate a serial schedule but to pick a *legal* simultaneous one
// whose moves commute. Commutativity comes from a distance form of
// the locality contract, program.LocalityRadius: a protocol declaring
// radius R promises that guards and statements of (v, a) read only
// the closed ball B(v,R) and write only v. Balls are symmetric —
// u ∈ B(v,R) ⟺ v ∈ B(u,R) — so when the graph is partitioned into
// contiguous id ranges (one shard per worker; graph.BFSOrder +
// ReorderNodes relabel arbitrary graphs so ranges are geometrically
// compact), a node whose ball lies inside its own shard is *interior*:
// no other shard reads or is influenced by a move there. Each step
// runs two phases: phase A fires interior nodes concurrently, one
// goroutine per shard, each with its own seeded RNG and eager in-shard
// repair of the shared guard cache (each worker tallies its own
// enabled and round-pending changes, folded at the barrier); phase B fires the frontier (non-interior nodes)
// wave by wave, where a wave is a set of frontier nodes with
// pairwise-disjoint radius-R balls — the simultaneity the paper's
// distributed daemon permits. By default every wave is a single
// frontier node in ascending order, so phase B is a serialized sweep;
// under ParallelConfig.FrontierWaves a wave is a color class of the
// greedy distance-2R coloring of the frontier conflict graph
// (graph.ConflictAdjacency: two frontier nodes conflict iff their
// graph distance is ≤ 2R, i.e. exactly when their radius-R balls can
// intersect), fired concurrently across the pool. Activation and
// action draws for a wave are made serially in ascending member order
// before the wave fans out, so the trace stays the canonical
// serialization — shard 0's moves, then shard 1's, …, then wave 0
// ascending, wave 1 ascending, … — and the differential suite replays
// every trace through Protocol.Execute on a restored snapshot,
// asserting each move fires and the final configurations match byte
// for byte. The coloring is cached alongside the interior/frontier
// classification and recomputed only when a topology delta lands
// within 2R of a frontier node (within R it also reclassifies
// membership; farther away it skips both — the FrontierRebuilds /
// WaveRebuilds / ReclassSkips counters prove which tier fired).
// Ownership is enforced, not assumed: a move whose influence escapes
// its shard (phase A) or its declared radius-R ball (multi-node
// waves) is reported as an under-declared radius, and workers never
// write another shard's cache entries, so the suite runs -race-clean
// at any GOMAXPROCS (CI runs the matrix at 2 and 8).
//
// Determinism holds per (seed, worker count): per-shard RNG streams
// are split from the configured seed, and the batch merge order is
// fixed, so equal seeds and worker counts replay bit-identically,
// while different worker counts yield different — still legal —
// distributed-daemon schedules. Topology deltas (System.ApplyDelta's
// parallel twin) land between steps, when the pool is quiesced: both
// engines run the same ApplyDelta head — the protocol's
// TopologyChanged hook, the cache repair for the delta's ball, and
// slot growth when AddNode grows the id space — and the parallel
// engine then re-classifies interior/frontier membership inside the
// radius-R ball of the touched set. The protocols' flat per-node
// arrays (a struct-of-arrays layout throughout), the cache's
// capacity-doubling arena and System's Fenwick index make growth to
// n=10⁶–10⁷ an amortised-O(1) append per node instead of a full
// rebuild. Shard boundaries can also move
// while the system runs: Reshard() re-partitions into even ranges on
// demand, and ParallelConfig.Reshard (program.ReshardPolicy) does it
// automatically — when the max/mean ratio of recent per-shard phase-A
// work exceeds Imbalance (and at least MinInterval steps have passed),
// boundaries are recut by prefix sums of that work. Both paths run
// between steps on the quiesced pool and fully reclassify, so
// determinism survives as a function of the whole configuration
// history: equal (snapshot, seed, workers, policy) still replay
// bit-identically, but a reshard changes which nodes are interior and
// therefore the schedule from that step on. Because core counts vary
// across machines, experiment T17 reports counted work/span
// throughput — work = guard evaluations + moves; span per step = the
// largest shard's phase-A work plus the boundary pass (whole boundary
// work when serial, Σ of each wave's largest chunk when waved; the
// phases are barrier-separated, so span adds them) — and the
// committed baseline gates the ratios in CI: 7.7× counted speedup at
// 8 workers with waves on (vs 7.2× serialized) on the n=2²⁰ grid, and
// a 3.4× phase-B span reduction on a fat-frontier barabási graph
// where the serialized seam dominates.
//
// # Dynamic topology
//
// The communication graph is mutable while the system runs: edges and
// nodes appear and disappear (graph.AddEdge / RemoveEdge / AddNode /
// RemoveNode), and the protocols — being self-stabilizing — absorb
// every such event as one more transient fault. The mutable-graph
// contract (internal/graph/delta.go) has three load-bearing clauses:
//
//   - Port stability: removing an edge leaves a hole (graph.None) at
//     its ports, so every surviving edge keeps its port number and
//     port-indexed protocol state stays bound to the right edges; a
//     re-added edge reclaims the lowest holes. Iteration over
//     Neighbors skips holes; Ports(v) sizes port-indexed arrays,
//     Degree(v) counts live edges.
//   - Delta soundness: every mutation returns a graph.Delta listing
//     exactly the nodes whose local view changed, and bumps the
//     monotone Version. Mutating the graph and calling
//     System.ApplyDelta with the returned record are two halves of
//     one operation — any query in between sees stale caches, the
//     same staleness rule as Snapshotter.Restore + System.Invalidate.
//   - ApplyDelta locality: the runner hands the delta to the
//     protocol's program.TopologyAware hook (rebind port-indexed
//     state, clamp dangling references — the resulting state may be
//     arbitrary, but every index stays in-bounds — and report the
//     event's influence ball), then repairs its guard cache, Fenwick
//     index, round bookkeeping and witness counters for that ball
//     only: O(deg·Δ) per topology event, against the Θ(n) rescan of a
//     whole-system Invalidate (experiment T13 counts it: an edge flap
//     on a 64×64 grid re-evaluates 10 guards, not 8192, and
//     re-stabilizes with zero O(n) legitimacy scans). Both schedulers
//     stay bit-identical across interleaved topology deltas.
//   - Component tracking: mutations may disconnect the graph — there
//     is no connectivity restriction anywhere in the contract. The
//     graph maintains connected-component labels incrementally across
//     deltas (graph.ComponentOf / Components / ComponentSize /
//     SameComponent; merges relabel the smaller side, removals run a
//     bounded bidirectional split search), reports split/merge events
//     in the Delta (Components, CompChanged), and bumps CompVersion()
//     only when labels actually change, so consumers cache
//     component-derived facts cheaply.
//
// Legitimacy on a disconnected graph is decided per component: the
// root's component must satisfy the classic predicate restricted to
// it (the circulator's round counted against ComponentSize, the trees'
// distances/paths within the component), while every component that
// lost the root — the detected orphan state — must be silent, i.e.
// quiescent in the fixpoint its protocol degrades to (BFS distances
// pinned at n, DFS paths ⊥, DFTNO reference names −1). Witnesses
// implement this by bucketing violation counters per component and
// counting loud orphan nodes, re-arming when CompVersion or the
// root's liveness changes, so L_P stays an O(1) decision while the
// network splits and heals. internal/apps.ElectComponentRoots floods
// max-id election per component (churn.ComponentReport wraps it) to
// identify stand-in leaders for detected orphan components.
//
// Package churn turns this into scenarios — seeded edge-flap, node
// crash/join and partition/heal schedules with per-event recovery
// measurement, plus non-connectivity-preserving bridge-cut and
// island-crash schedules whose down phases measure per-component
// convergence while split — and fault.Churn composes topology faults
// with state corruption (including corruption aimed at orphan
// components, in either Invalidate/ApplyDelta order) into campaigns;
// cmd/stabsim exposes all of it (-faults, -churn, -allow-disconnect).
// Experiment T14 records the heal-time merge cost: re-connecting a
// k-way split re-evaluates the boundary balls plus the renamed orphan
// regions, not Θ(n) per heal.
//
// # Root failover
//
// Orphan components need not stay dead weight. The internal/failover
// package wraps any rooted stack (all five implement the
// program.Rootable binding) in a self-stabilizing
// disconnection-detection and acting-root layer, giving each orphan
// component a four-stage lifecycle:
//
//   - Detect: every node maintains a bounded root-distance/epoch pair
//     (root at (0, graph.RootEpoch); everyone else one past the
//     closest live neighbour, saturating at n). Disconnection makes
//     the distances count up to the bound — the classic
//     count-to-infinity, here terminating because the bound is the
//     component-size cap — and a node whose distance saturates flips
//     its local Orphaned() predicate. Detection reads only own and
//     neighbour variables; agreement with graph.ComponentOf truth is
//     a convergence property (DetectionAccurate), proven differential
//     in the failover tests and soaked under churn.
//   - Elect: orphaned nodes run a flooding max-id election with
//     distance-bounded decay (the protocol-level promotion of
//     apps.ElectComponentRoots), so each orphan component converges
//     on its highest surviving id as acting root.
//   - Act: the wrapper implements program.RootAuthority — IsRoot(v)
//     is the fixed root, or an orphaned self-elected winner — and the
//     inner stack re-anchors at the acting roots: the circulator
//     circulates per component, trees re-root, DFTNO renames, STNO
//     re-weighs. Per-component legitimacy under acting roots is the
//     wrapper's Legitimate, decided O(1) by the wrapper's witness
//     conjoined with the inner stack's (witness ≡ scan is a soak
//     invariant at every settle point).
//   - Abdicate: a heal reconnects the orphan component, distances
//     deflate below the bound, Orphaned() clears, IsRoot flips back
//     to the fixed root alone (RootsVersion bumps; the inner stacks
//     re-derive their reference state), and the acting
//     root's state washes out — lockstep differential tests drive
//     merges of two acting roots and heals landing mid-election.
//
// Every stack holds its root set in one program.Roots: the fixed root
// is the degenerate authority whose only root is itself while it is
// alive, so each root-derived computation (the circulator's predicate
// and witness, the trees' reference distances and paths, DFTNO's
// reference naming) exists once, in its per-root form, with or without
// a bound authority. The last three are one mechanism: each stack owns
// a graph.Forest grown from the live roots — the port-order DFS for
// DFTNO's names and the DFS tree's minimal paths, the multi-source BFS
// for the BFS tree's distances — rebuilt in place after every topology
// delta except the removal of a non-tree edge, which cannot change it. Acting-root staleness contract: inner stacks never cache
// IsRoot-derived facts across a move of the root set's key (the
// authority's RootsVersion, or the fixed root's graph.RootEpoch);
// every Legitimate() or WitnessLegitimate() that reads a cached one
// checks Roots.Moved first, so a verdict flip invalidates reference
// naming before any predicate reads it.
//
// The soak engine (churn.Runner.Soak; stabsim -soak) proves the
// lifecycle under long-lived schedules: overlapping partition cuts,
// partial heals, components that never reunite (LeaveSplit), and
// crash/revive of the fixed root itself (fault.Churn's CrashRoot knob
// drives the same event in fault campaigns), with per-phase
// detection-latency measurement and invariant checks — no
// false-orphan flaps after detection settles, exactly one acting root
// per component, witness ≡ scan at every settle. Experiment T15
// records detection latency and re-anchoring cost against the global
// restart the failover replaces.
//
// # Message-passing deployment
//
// The guarded-command daemon model is the paper's abstraction; real
// networks deliver messages. internal/actor closes that gap with an
// actor-style runtime: one goroutine and one bounded mailbox per
// node, messages only along graph links, and a configurable delivery
// policy (FIFO per link by default; seeded drop and bounded-reorder
// fault injection for adversarial runs). The transformer follows the
// request/reply family of Bernard–Devismes–Potop-Butucaru–Tixeuil
// (arXiv:0805.0851): each node caches versioned neighbour states, and
// a move fires only when every cached state in the action's declared
// influence ball is provably fresh — the node re-requests stale
// entries and retries. The runtime's authoritative state is a
// program.System under one state mutex: a node that passes the
// freshness gate picks one of its enabled actions and fires it through
// System.Step, whose daemon selects exactly that move, so the serial
// engine's enabled cache, witness and move counters are the runtime's.
// Guards are re-validated under the mutex at fire time, which yields
// the *daemon-projection guarantee*: the mutex order of fired moves is
// a legal central-daemon execution of the same protocol, so every
// safety and convergence property proved in the daemon model
// transfers to the message runtime. Admin topology mutations are
// repaired local to the delta: System.ApplyDelta repairs the guard
// cache and the witness over the delta's ball as on the serial engine,
// only the nodes it repaired get a new version, and the runtime
// recomputes the influence balls and links of the touched nodes and
// their pre-mutation balls only. A link's fault stream is a splitmix64
// state seeded from the runtime seed and the link's key, so a
// re-created link restarts it without an allocation. The projection
// guarantee is checked, not assumed —
// actor.CheckProjection replays each recorded execution move-for-move
// on a serial full-scan oracle through program.ScriptDaemon (every
// replayed move must be enabled when scheduled) and requires
// byte-identical final snapshots, across protocols, topologies and
// fault policies in the differential suite. Liveness needs no
// synchrony: sends never block (full mailboxes drop and the
// supervisor's periodic tick re-prods enabled nodes), so any drop
// rate below one keeps convergence almost-sure.
//
// cmd/orientd is the deployment form: a long-running service that
// boots any of the five stacks — wrapped in root failover — on a
// graph.Named topology, stabilizes continuously on the actor runtime
// (or the sharded parallel stepper with -workers N, whose metrics
// verb then reports per-shard work, frontier size, wave count and the
// resharding counters), and serves a JSON-line admin protocol on a
// Unix or TCP socket.
// Query verbs (status, legitimacy, orientation, enabled, metrics)
// answer off the O(1) witness counters, so many concurrent clients
// can watch legitimacy and per-component acting-root state live while
// stabilization runs; fault verbs (corrupt, flap, cut, heal,
// crash-root, revive) inject the same perturbations the simulation
// campaigns use, and `orientd -smoke` drives the whole lifecycle —
// converge, hammer with parallel clients, inject faults, re-converge,
// clean shutdown — as a CI gate. The failover election can be
// weighted (failover.Protocol.WeightElection): acting-root candidates
// then compete on a lexicographic (operator priority, degree, id) key
// advertised hop-by-hop with the candidate id, so pinned or highly
// connected nodes win orphan components instead of the bare maximum
// id, with the same count-to-the-bound decay for stale claims.
//
// # Snapshots and model checking
//
// internal/check verifies closure and convergence by exploring the
// configurations reachable from a seed set, and it identifies a
// configuration by its program.Snapshotter bytes. Every stack writes
// those bytes through one codec (program.SnapshotWriter and
// SnapshotReader in internal/program/snapshot.go): a fixed field list
// of varint integers and one-byte booleans. A composed stack (DFTNO,
// STNO, the failover wrapper) writes through its program.Layer: the
// inner stack's snapshot first as one length-prefixed field, then the
// layer's own fields. Snapshots are
// canonical and injective, so equal configurations are equal states
// and the checker's state counts do not depend on the encoding;
// Restore rejects truncated input, trailing bytes and layer bytes it
// cannot restore. The circulator's unbounded round counters are
// encoded relative to their minimum, which keeps the reachable state
// space finite. The same bytes rewind fault campaigns and the actor
// runtime's projection check.
//
// cmd/benchtab regenerates every experiment table (the index is
// internal/experiments.All), and BENCH_scheduler.json holds the
// committed scheduler baselines CI gates. All implementation lives
// under internal/; the runnable entry points are the programs in cmd/
// and examples/.
package netorient
