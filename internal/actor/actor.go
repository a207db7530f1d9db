// Package actor executes a guarded-command protocol under an
// actor-style asynchronous message-passing runtime: one mailbox and
// one goroutine per node, bounded channels along links, and a
// conservative transformer that turns each protocol's read-neighbor
// guards into explicit state-broadcast / state-request messages.
//
// # The transformer
//
// The paper's algorithms read neighbor variables atomically; a
// message-passing deployment cannot. The runtime bridges the gap the
// way the request/reply transformers of Bernard, Devismes,
// Potop-Butucaru and Tixeuil (arXiv:0805.0851) do: a node may only
// evaluate its guards when its view of every node in its locality ball
// is provably current.
//
// Concretely, the authoritative configuration lives in a program.System
// over the protocol, guarded by one state mutex (composite atomicity,
// exactly the shared-memory model's move granularity). The System is
// the serial engine itself: its enabled cache, witness and move
// counters are the runtime's, every fired move is one System.Step, and
// a topology delta is repaired by System.ApplyDelta over the delta's
// ball, as on the serial engine; the runtime's own balls and links are
// repaired near the delta only (see Mutate). Each node v carries a
// version counter ver[v], bumped under the mutex whenever v fires a
// move or a delta's repair may have changed its state, and each actor
// maintains seen[v][q] — the newest version of q it has been *told
// about by a message*. The freshness gate: actor v may evaluate and
// fire only while holding the mutex AND seen[v][q] == ver[q] for every
// q in v's radius-R influence ball. When the gate
// holds, v's message-derived knowledge of its ball coincides with the
// true configuration, so evaluating the guards on the true state is
// identical to evaluating them on v's local view — the evaluation is
// implementable from messages alone. v then picks one of its enabled
// actions and hands that single move to the System's daemon. When the
// gate fails, v sends state-requests to the stale nodes and yields.
// After firing, v broadcasts its new version to its ball.
//
// # The projection guarantee
//
// Because every fired move re-validated its guard under the state
// mutex, the mutex-order sequence of fired moves is a legal
// central-daemon execution — one enabled processor per step — and the
// central daemon is a special case of the paper's distributed daemon.
// The runtime records that sequence (Config.Record) together with the
// initial configuration snapshot; CheckProjection replays it through a
// program.ScriptDaemon on the Θ(n) full-scan serial oracle, which
// independently re-verifies that every scripted move was enabled when
// selected and that the final configurations agree byte for byte.
// Convergence under this runtime is therefore inherited from the
// shared-memory proof, not re-argued.
//
// # Delivery faults and liveness
//
// Per-link policies inject message-level faults: seeded drop,
// reordering via bounded hold-back queues, and implicit delay (a held
// message is delivered only when later traffic or a supervisor flush
// releases it). Sends never block — a full mailbox drops the message
// and counts it — so the runtime is deadlock-free by construction.
// Lost state is recovered by the request/reply path plus periodic
// supervisor ticks: whenever some processor is enabled, every actor is
// re-prodded, re-requests whatever is stale, and retries. With drop
// probability < 1 every retry eventually succeeds, so enabled moves
// eventually fire and the projection above carries the shared-memory
// convergence proof over to the faulty-delivery runtime.
package actor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"netorient/internal/graph"
	"netorient/internal/program"
)

// ErrTimeout is returned by Run when the predicate does not hold
// within the deadline.
var ErrTimeout = errors.New("actor: predicate not satisfied before deadline")

// message kinds. State and request messages traverse links and are
// subject to the link fault policy; ticks are supervisor prods
// delivered straight to mailboxes.
type kind uint8

const (
	msgState   kind = iota // from's state reached version ver
	msgRequest             // from asks the receiver to re-broadcast its version
	msgTick                // supervisor prod: re-check staleness and guards
)

type message struct {
	kind kind
	from graph.NodeID
	ver  uint64
}

// Config parameterizes the runtime.
type Config struct {
	// Seed derives every per-actor RNG stream and every per-link
	// fault stream. A link's stream is an inline splitmix64 state
	// seeded from (Seed, link key), so a link deleted by one topology
	// delta and re-created by another restarts the same stream, with
	// no allocation.
	Seed int64
	// Mailbox is the per-node mailbox capacity (bounded channel).
	// Defaults to 64; minimum 1. Sends to a full mailbox are dropped
	// and counted, never blocked on.
	Mailbox int
	// Tick is the supervisor resync period. Defaults to 1ms.
	Tick time.Duration
	// Drop is the per-message probability that a link discards a
	// protocol message. Must be < 1 for liveness.
	Drop float64
	// Reorder is the per-message probability that a link holds a
	// message back, delivering it after later traffic (bounded by
	// HoldMax per link). Held messages are flushed by the supervisor,
	// so hold-back is delay + reorder, never loss.
	Reorder float64
	// HoldMax bounds the per-link hold-back queue. Defaults to 2 when
	// Reorder > 0.
	HoldMax int
	// Record keeps the initial configuration snapshot and the move log
	// for CheckProjection. Requires the protocol to implement
	// program.Snapshotter. Topology deltas and node corruptions
	// invalidate the recording (the oracle graph would diverge).
	Record bool
}

// Metrics is a point-in-time snapshot of the runtime's counters.
type Metrics struct {
	Sent         int64 // protocol messages offered to links
	Delivered    int64 // protocol messages placed in a mailbox
	DroppedFault int64 // discarded by the seeded link drop policy
	DroppedFull  int64 // discarded because the destination mailbox was full
	DroppedLink  int64 // discarded because the link no longer exists
	Held         int64 // held back by the reorder policy
	Requests     int64 // state-request messages sent
	States       int64 // state-broadcast messages sent
	Ticks        int64 // supervisor prods delivered
	Moves        int64 // protocol moves fired
	Convergences int64 // illegitimate→legitimate transitions observed
	EnabledCount int   // processors currently enabled
	Legitimate   bool  // legitimacy at snapshot time
	MailboxPeak  int64 // high-water mailbox depth
	MoveLogLen   int   // recorded moves (0 unless Config.Record)
}

type link struct {
	mu   sync.Mutex
	rng  uint64 // splitmix64 state of the link's fault stream: Seed ^ link key at creation
	hold []message
	dst  chan message
}

// float64 draws the link's next fault decision, uniform in [0, 1):
// one splitmix64 step. Its output mixing decorrelates the streams of
// links whose seeds differ in only a few bits.
func (l *link) float64() float64 {
	l.rng += 0x9e3779b97f4a7c15
	z := l.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return float64((z^(z>>31))>>11) / (1 << 53)
}

type runState int32

const (
	stateIdle runState = iota
	stateRunning
	stateStopped
)

// gateDaemon is the System's daemon: it selects the one move the
// gated actor chose, so System.Step fires exactly that move.
type gateDaemon struct{ mv [1]program.Move }

func (d *gateDaemon) Name() string                             { return "actor-gate" }
func (d *gateDaemon) Select(program.EnabledSet) []program.Move { return d.mv[:] }

// Runtime executes one protocol instance under the message-passing
// model. Zero or one Run/Start cycle per Runtime.
type Runtime struct {
	proto  program.Protocol
	g      *graph.Graph
	cfg    Config
	radius int

	// mu is the state mutex. The authoritative state is sys, a
	// program.System over the protocol: the configuration, the
	// enabled cache, the witness and the move counters. ver, ball,
	// the repair scratch and the move log live under mu too. The graph
	// is only read under it, because admin topology mutations (Mutate)
	// happen while it is held.
	mu       sync.Mutex
	sys      *program.System
	gate     gateDaemon
	perMove  bool // the protocol is a program.Witness: count convergences per move
	ver      []uint64
	ball     [][]graph.NodeID // radius-R ball of each node, self excluded
	wasLegit bool
	moveLog  []program.Move // appended by sys.MoveHook while recording is valid
	initSnap []byte
	adminRng *rand.Rand
	stopped  bool
	pred     func() bool
	infBuf   []graph.NodeID
	seen     graph.Marks    // node-set scratch of Mutate's repair: the affected set, then each ball
	affected []graph.NodeID // the nodes whose ball and links Mutate repairs

	// linkMu guards the link map and the mbox slice (both edited in
	// place by Mutate). Lock order: mu before linkMu.
	linkMu sync.RWMutex
	links  map[uint64]*link
	mbox   []chan message

	state    atomic.Int32
	stopCh   chan struct{}
	predDone chan struct{}
	predOnce sync.Once
	wg       sync.WaitGroup

	sent         atomic.Int64
	delivered    atomic.Int64
	droppedFault atomic.Int64
	droppedFull  atomic.Int64
	droppedLink  atomic.Int64
	held         atomic.Int64
	requests     atomic.Int64
	statesSent   atomic.Int64
	ticks        atomic.Int64
	convergences atomic.Int64
	mailboxPeak  atomic.Int64
}

func linkKey(u, v graph.NodeID) uint64 { return uint64(u)<<32 | uint64(uint32(v)) }

// New builds a runtime over p. The protocol must not be shared with
// any other engine.
func New(p program.Protocol, cfg Config) (*Runtime, error) {
	if cfg.Mailbox <= 0 {
		cfg.Mailbox = 64
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	if cfg.Reorder > 0 && cfg.HoldMax <= 0 {
		cfg.HoldMax = 2
	}
	if cfg.Drop < 0 || cfg.Drop >= 1 || cfg.Reorder < 0 || cfg.Reorder > 1 {
		return nil, fmt.Errorf("actor: fault rates out of range (drop=%v reorder=%v)", cfg.Drop, cfg.Reorder)
	}
	r := &Runtime{
		proto:    p,
		g:        p.Graph(),
		cfg:      cfg,
		radius:   program.ProtocolRadius(p),
		links:    map[uint64]*link{},
		stopCh:   make(chan struct{}),
		predDone: make(chan struct{}),
		adminRng: rand.New(rand.NewSource(cfg.Seed ^ 0x5eed0ad)),
	}
	r.sys = program.NewSystem(p, &r.gate)
	_, r.perMove = p.(program.Witness)
	if cfg.Record {
		sn, ok := p.(program.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("actor: %s does not implement Snapshotter, cannot record for projection", p.Name())
		}
		r.initSnap = sn.Snapshot()
		r.sys.MoveHook = func(m program.Move) { r.moveLog = append(r.moveLog, m) }
	}
	r.growLocked()
	for v := range r.ball {
		r.repairLocked(graph.NodeID(v))
	}
	return r, nil
}

// Protocol returns the protocol under execution.
func (r *Runtime) Protocol() program.Protocol { return r.proto }

// growLocked extends the per-node arrays and mailboxes to the graph's
// id space, starting an actor for each new node if the runtime is
// running. Caller holds mu and linkMu (or is New).
func (r *Runtime) growLocked() {
	for v := len(r.ver); v < r.g.N(); v++ {
		r.ver = append(r.ver, 0)
		r.ball = append(r.ball, nil)
		r.mbox = append(r.mbox, make(chan message, r.cfg.Mailbox))
		if r.state.Load() == int32(stateRunning) {
			r.wg.Add(1)
			go r.actor(graph.NodeID(v), r.mbox[v], rand.New(rand.NewSource(r.cfg.Seed+int64(v))))
		}
	}
}

// repairLocked recomputes w's radius-R ball (self excluded) and
// reconciles w's outgoing links with it: links to nodes that left the
// ball are deleted, links to nodes that entered it are created. A dead
// node's ball is empty, so it loses every link. Links span the whole
// ball, not just the 1-hop neighborhood, so radius-2 protocols can
// broadcast and request across two hops; on the wire that is a relay,
// here it is modeled as a (faulty) virtual link. Caller holds mu and
// linkMu (or is New).
func (r *Runtime) repairLocked(w graph.NodeID) {
	r.infBuf = program.InfluenceBall(r.g, w, r.radius, &r.seen, r.infBuf[:0])
	b := r.infBuf[:0]
	for _, q := range r.infBuf {
		if q == w {
			continue
		}
		b = append(b, q)
		if k := linkKey(w, q); r.links[k] == nil {
			r.links[k] = &link{rng: uint64(r.cfg.Seed) ^ k, dst: r.mbox[q]}
		}
	}
	for _, q := range r.ball[w] {
		if !r.seen.Has(q) {
			delete(r.links, linkKey(w, q))
		}
	}
	r.ball[w] = append(r.ball[w][:0], b...)
}

// legitimateLocked evaluates legitimacy: O(1) off the System's
// witness, armed on the first call, when the protocol has one. Caller
// holds mu.
func (r *Runtime) legitimateLocked() bool {
	res, err := r.sys.RunUntilLegitimate(0)
	return err == nil && res.Converged
}

// observeLocked counts an illegitimate→legitimate transition. Caller
// holds mu.
func (r *Runtime) observeLocked() {
	legit := r.legitimateLocked()
	if legit && !r.wasLegit {
		r.convergences.Add(1)
	}
	r.wasLegit = legit
}

// Start arms the witness, spawns one actor goroutine per node plus the
// supervisor, and prods every actor once. A Runtime runs at most once.
func (r *Runtime) Start() error {
	if !r.state.CompareAndSwap(int32(stateIdle), int32(stateRunning)) {
		return errors.New("actor: runtime already started")
	}
	r.mu.Lock()
	r.wasLegit = r.legitimateLocked()
	r.mu.Unlock()

	r.linkMu.RLock()
	for v, mb := range r.mbox {
		r.wg.Add(1)
		go r.actor(graph.NodeID(v), mb, rand.New(rand.NewSource(r.cfg.Seed+int64(v))))
	}
	r.linkMu.RUnlock()
	r.wg.Add(1)
	go r.supervise()
	r.tickAll()
	return nil
}

// Stop shuts the runtime down and waits for every goroutine to exit.
// Idempotent; safe after Start only.
func (r *Runtime) Stop() {
	if !r.state.CompareAndSwap(int32(stateRunning), int32(stateStopped)) {
		return
	}
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
	close(r.stopCh)
	r.wg.Wait()
}

// Run starts the runtime and blocks until pred holds (checked by the
// supervisor under the state mutex every tick), the context is
// cancelled, or the timeout elapses — then stops it. Returns nil,
// ctx.Err() or ErrTimeout respectively.
func (r *Runtime) Run(ctx context.Context, pred func() bool, timeout time.Duration) error {
	r.pred = pred
	if err := r.Start(); err != nil {
		return err
	}
	defer r.Stop()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-r.predDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return ErrTimeout
	}
}

// RunUntilLegitimate runs until the protocol's legitimacy predicate
// holds, O(1) per check off the armed witness. A protocol without a
// legitimacy predicate is an error, returned before anything starts.
func (r *Runtime) RunUntilLegitimate(ctx context.Context, timeout time.Duration) error {
	if _, ok := r.proto.(program.Legitimacy); !ok {
		return fmt.Errorf("actor: protocol %q has no legitimacy predicate", r.proto.Name())
	}
	return r.Run(ctx, r.legitimateLocked, timeout)
}

// supervise is the liveness pump: every tick it flushes held-back
// messages, re-prods all actors while any processor is enabled (so
// dropped state and request messages are retried), counts convergence
// events, and checks the Run predicate.
func (r *Runtime) supervise() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.Tick)
	defer t.Stop()
	r.checkPred()
	for {
		select {
		case <-r.stopCh:
			return
		case <-t.C:
			r.flushHeld()
			r.mu.Lock()
			prod := r.sys.EnabledCount() > 0
			r.observeLocked()
			r.mu.Unlock()
			if prod {
				r.tickAll()
			}
			r.checkPred()
		}
	}
}

func (r *Runtime) checkPred() {
	if r.pred == nil {
		return
	}
	r.mu.Lock()
	ok := r.pred()
	r.mu.Unlock()
	if ok {
		r.predOnce.Do(func() { close(r.predDone) })
	}
}

// flushHeld delivers every held-back message on every link.
func (r *Runtime) flushHeld() {
	r.linkMu.RLock()
	defer r.linkMu.RUnlock()
	for _, l := range r.links {
		l.mu.Lock()
		for _, m := range l.hold {
			r.deliver(l.dst, m)
		}
		l.hold = l.hold[:0]
		l.mu.Unlock()
	}
}

// tickAll prods every live node's mailbox (best-effort, non-blocking).
func (r *Runtime) tickAll() {
	r.linkMu.RLock()
	defer r.linkMu.RUnlock()
	for v := range r.mbox {
		select {
		case r.mbox[v] <- message{kind: msgTick}:
			r.ticks.Add(1)
		default:
		}
	}
}

// deliver places m in a mailbox without blocking, tracking depth.
func (r *Runtime) deliver(dst chan message, m message) {
	select {
	case dst <- m:
		r.delivered.Add(1)
		d := int64(len(dst))
		for {
			p := r.mailboxPeak.Load()
			if d <= p || r.mailboxPeak.CompareAndSwap(p, d) {
				break
			}
		}
	default:
		r.droppedFull.Add(1)
	}
}

// send routes one protocol message from u to q through the link's
// fault policy. Never blocks.
func (r *Runtime) send(u, q graph.NodeID, m message) {
	r.sent.Add(1)
	if m.kind == msgRequest {
		r.requests.Add(1)
	} else {
		r.statesSent.Add(1)
	}
	r.linkMu.RLock()
	l := r.links[linkKey(u, q)]
	r.linkMu.RUnlock()
	if l == nil {
		r.droppedLink.Add(1)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.cfg.Drop > 0 && l.float64() < r.cfg.Drop {
		r.droppedFault.Add(1)
		return
	}
	if r.cfg.Reorder > 0 && len(l.hold) < r.cfg.HoldMax && l.float64() < r.cfg.Reorder {
		l.hold = append(l.hold, m)
		r.held.Add(1)
		return
	}
	r.deliver(l.dst, m)
	// Releasing held messages *after* the one just delivered is what
	// realizes reordering on the FIFO channel.
	for len(l.hold) > 0 && l.float64() < 0.5 {
		r.deliver(l.dst, l.hold[0])
		copy(l.hold, l.hold[1:])
		l.hold = l.hold[:len(l.hold)-1]
	}
}

// actor is node v's event loop: drain the mailbox, update the local
// view, then try to move.
func (r *Runtime) actor(v graph.NodeID, mbox chan message, rng *rand.Rand) {
	defer r.wg.Done()
	seen := map[graph.NodeID]uint64{} // newest version of q that v was told about
	var ballCopy, stale []graph.NodeID
	var guardBuf []program.ActionID
	for {
		select {
		case <-r.stopCh:
			return
		case m := <-mbox:
			r.handle(v, m, seen)
		}
		for drained := false; !drained; {
			select {
			case m := <-mbox:
				r.handle(v, m, seen)
			default:
				drained = true
			}
		}
		ballCopy, stale, guardBuf = r.tryMove(v, rng, seen, ballCopy, stale, guardBuf)
	}
}

// handle processes one message for v. seen is owned by v's goroutine.
func (r *Runtime) handle(v graph.NodeID, m message, seen map[graph.NodeID]uint64) {
	switch m.kind {
	case msgState:
		if m.ver > seen[m.from] {
			seen[m.from] = m.ver
		}
	case msgRequest:
		r.mu.Lock()
		ver := r.ver[v]
		r.mu.Unlock()
		r.send(v, m.from, message{kind: msgState, from: v, ver: ver})
	case msgTick:
		// Fall through to tryMove.
	}
}

// tryMove runs v's guarded-command step loop: while fresh and enabled,
// fire and broadcast; on staleness, request and yield. The three
// scratch slices are v-owned and returned for reuse.
func (r *Runtime) tryMove(v graph.NodeID, rng *rand.Rand, seen map[graph.NodeID]uint64,
	ballCopy, stale []graph.NodeID, guardBuf []program.ActionID) ([]graph.NodeID, []graph.NodeID, []program.ActionID) {
	for {
		stale = stale[:0]
		ballCopy = ballCopy[:0]
		fired := false
		var verNow uint64

		r.mu.Lock()
		if r.stopped || !r.g.Alive(v) {
			r.mu.Unlock()
			return ballCopy, stale, guardBuf
		}
		ballCopy = append(ballCopy, r.ball[v]...)
		for _, q := range ballCopy {
			if r.ver[q] != seen[q] {
				stale = append(stale, q)
			}
		}
		if len(stale) == 0 {
			// The freshness gate holds: v's view of its ball equals the
			// true configuration, so evaluating on the authoritative
			// state is evaluating on v's local view.
			guardBuf = r.proto.Enabled(v, guardBuf[:0])
			if len(guardBuf) > 0 {
				r.gate.mv[0] = program.Move{Node: v, Action: guardBuf[rng.Intn(len(guardBuf))]}
				if n, _ := r.sys.Step(); n == 1 {
					fired = true
					r.ver[v]++
					verNow = r.ver[v]
					// With a witness the legitimacy probe is O(1), so
					// convergence transitions are counted move-accurately
					// here; without one the supervisor counts them at tick
					// granularity.
					if r.perMove {
						r.observeLocked()
					}
				}
			}
		}
		r.mu.Unlock()

		if len(stale) > 0 {
			for _, q := range stale {
				r.send(v, q, message{kind: msgRequest, from: v})
			}
			return ballCopy, stale, guardBuf
		}
		if !fired {
			return ballCopy, stale, guardBuf
		}
		for _, q := range ballCopy {
			r.send(v, q, message{kind: msgState, from: v, ver: verNow})
		}
	}
}

// Legitimate reports legitimacy, O(1) off the witness counters when
// the protocol implements program.Witness.
func (r *Runtime) Legitimate() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.legitimateLocked()
}

// EnabledCount returns the number of currently enabled processors,
// from the System's incrementally maintained cache.
func (r *Runtime) EnabledCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sys.EnabledCount()
}

// EnabledNodes appends the currently enabled processors to buf in
// ascending order.
func (r *Runtime) EnabledNodes(buf []graph.NodeID) []graph.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sys.EnabledNodes(buf)
}

// Moves returns the number of protocol moves fired so far.
func (r *Runtime) Moves() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sys.Moves()
}

// Locked runs f while holding the state mutex, giving admin callers a
// consistent read (or fault write) against the protocol configuration.
// f must not call back into the runtime.
func (r *Runtime) Locked(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f()
}

// Snapshot returns the protocol's canonical snapshot taken under the
// state mutex, or nil if the protocol is not a Snapshotter.
func (r *Runtime) Snapshot() []byte {
	sn, ok := r.proto.(program.Snapshotter)
	if !ok {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sn.Snapshot()
}

// InitialSnapshot returns the configuration recorded at New (only
// under Config.Record).
func (r *Runtime) InitialSnapshot() []byte { return r.initSnap }

// MoveLog returns a copy of the recorded move sequence, or nil if
// recording was off or was invalidated by a topology delta or node
// corruption.
func (r *Runtime) MoveLog() []program.Move {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sys.MoveHook == nil {
		return nil
	}
	out := make([]program.Move, len(r.moveLog))
	copy(out, r.moveLog)
	return out
}

// Metrics snapshots the runtime counters.
func (r *Runtime) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Metrics{
		Sent:         r.sent.Load(),
		Delivered:    r.delivered.Load(),
		DroppedFault: r.droppedFault.Load(),
		DroppedFull:  r.droppedFull.Load(),
		DroppedLink:  r.droppedLink.Load(),
		Held:         r.held.Load(),
		Requests:     r.requests.Load(),
		States:       r.statesSent.Load(),
		Ticks:        r.ticks.Load(),
		Moves:        r.sys.Moves(),
		Convergences: r.convergences.Load(),
		EnabledCount: r.sys.EnabledCount(),
		Legitimate:   r.legitimateLocked(),
		MailboxPeak:  r.mailboxPeak.Load(),
		MoveLogLen:   len(r.moveLog),
	}
}

// CorruptNode injects a transient fault into live node v's local state
// under the state mutex, using the runtime's admin RNG. A dead or
// out-of-range v is an error. The System is invalidated (its enabled
// cache and witness are rebuilt on the next query), v's version bumped
// so its ball resyncs, and the projection recording invalidated.
func (r *Runtime) CorruptNode(v graph.NodeID) error {
	nc, ok := r.proto.(program.NodeCorruptor)
	if !ok {
		return fmt.Errorf("actor: %s does not implement NodeCorruptor", r.proto.Name())
	}
	r.mu.Lock()
	if v < 0 || int(v) >= r.g.N() || !r.g.Alive(v) {
		r.mu.Unlock()
		return fmt.Errorf("actor: corrupt: node %d out of range or dead", v)
	}
	nc.CorruptNode(v, r.adminRng)
	r.ver[v]++
	r.sys.Invalidate()
	r.sys.MoveHook, r.moveLog = nil, nil
	r.mu.Unlock()
	r.tickAll()
	return nil
}

// Mutate applies one topology mutation to the protocol's graph and
// incorporates the delta f returns, local to the delta.
// System.ApplyDelta repairs the enabled cache and the witness over the
// delta's ball, exactly as on the serial engine, and only the nodes it
// repaired — d.Touched ∪ System.DeltaBall — get a new version (a node
// listed twice is bumped twice, which is as good), so only their
// observers resynchronize. The radius-R balls and links are repaired
// for the touched nodes and their stored (pre-mutation) balls only.
// That set holds every node x whose ball can change: if it changed,
// some path of at most R hops from x, in the old or the new graph,
// crosses an edge or node the delta changed, and the part of that
// path before the first change runs through unchanged nodes and edges
// to a touched node, so it is shorter than R and exists in the old
// graph too. The per-node arrays grow with the id space. f runs under
// the state mutex and the repair follows under the same hold, so no
// actor ever steps against a mutated but unrepaired graph; f must not
// call back into the runtime. If f fails, nothing is repaired and its
// error is returned. Mutate invalidates the projection recording.
func (r *Runtime) Mutate(f func() (graph.Delta, error)) error {
	r.mu.Lock()
	d, err := f()
	if err != nil {
		r.mu.Unlock()
		return err
	}
	r.sys.ApplyDelta(d)
	r.sys.MoveHook, r.moveLog = nil, nil
	r.linkMu.Lock()
	r.growLocked()
	for _, u := range d.Touched {
		r.ver[u]++
	}
	for _, u := range r.sys.DeltaBall() {
		r.ver[u]++
	}
	r.seen.Reset(r.g.N())
	r.affected = append(r.affected[:0], d.Touched...)
	for _, t := range d.Touched {
		r.seen.Add(t)
	}
	for _, t := range d.Touched {
		for _, q := range r.ball[t] {
			if r.seen.Add(q) {
				r.affected = append(r.affected, q)
			}
		}
	}
	for _, w := range r.affected {
		r.repairLocked(w)
	}
	r.linkMu.Unlock()
	r.mu.Unlock()
	r.tickAll()
	return nil
}
