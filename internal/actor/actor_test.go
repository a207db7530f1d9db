package actor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"netorient/internal/core"
	"netorient/internal/daemon"
	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
	"netorient/internal/token"
)

// The differential matrix: stacks × topologies. Each case runs an
// adversarially-initialized protocol on the message runtime and then
// projects the execution onto the serial oracle (CheckProjection).
type stackCase struct {
	name  string
	build func(g *graph.Graph) (program.Protocol, error)
}

func stacks() []stackCase {
	return []stackCase{
		{"bfstree", func(g *graph.Graph) (program.Protocol, error) {
			return spantree.NewBFSTree(g, 0)
		}},
		{"token", func(g *graph.Graph) (program.Protocol, error) {
			return token.NewCirculator(g, 0)
		}},
		{"dftno", func(g *graph.Graph) (program.Protocol, error) {
			sub, err := token.NewCirculator(g, 0)
			if err != nil {
				return nil, err
			}
			return core.NewDFTNO(g, sub, 0)
		}},
		{"stno", func(g *graph.Graph) (program.Protocol, error) {
			sub, err := spantree.NewBFSTree(g, 0)
			if err != nil {
				return nil, err
			}
			return core.NewSTNO(g, sub, 0)
		}},
	}
}

type topoCase struct {
	name  string
	build func() *graph.Graph
}

func topologies() []topoCase {
	return []topoCase{
		{"grid4x4", func() *graph.Graph { return graph.Grid(4, 4) }},
		{"ring9", func() *graph.Graph { return graph.Ring(9) }},
	}
}

func runProjection(t *testing.T, sc stackCase, tc topoCase, cfg Config, seed int64) {
	t.Helper()
	g := tc.build()
	p, err := sc.build(g)
	if err != nil {
		t.Fatal(err)
	}
	if rz, ok := p.(program.Randomizer); ok {
		rz.Randomize(rand.New(rand.NewSource(seed)))
	}
	cfg.Seed = seed
	cfg.Record = true
	rt, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntilLegitimate(context.Background(), 60*time.Second); err != nil {
		t.Fatalf("convergence: %v", err)
	}
	rt.Stop()
	if leg, ok := p.(program.Legitimacy); ok && !leg.Legitimate() {
		t.Fatal("runtime reported legitimate but O(n) predicate disagrees")
	}
	oracle, err := sc.build(tc.build())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckProjection(rt, oracle); err != nil {
		t.Fatalf("projection: %v", err)
	}
	m := rt.Metrics()
	if m.Moves == 0 || m.MoveLogLen == 0 {
		t.Fatalf("no moves recorded (moves=%d log=%d)", m.Moves, m.MoveLogLen)
	}
	if int64(m.MoveLogLen) != m.Moves {
		t.Fatalf("move log length %d != move counter %d", m.MoveLogLen, m.Moves)
	}
}

// TestProjectionReliableLinks: every stack × topology under clean FIFO
// delivery projects onto a legal central-daemon execution and replays
// byte-identically on the Θ(n) full-scan oracle.
func TestProjectionReliableLinks(t *testing.T) {
	for _, sc := range stacks() {
		for _, tc := range topologies() {
			t.Run(sc.name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				runProjection(t, sc, tc, Config{}, 7)
			})
		}
	}
}

// TestProjectionFaultyLinks: same matrix under seeded message drop and
// reorder plus a tiny mailbox. The projection guarantee is delivery-
// independent: whatever interleaving the faults induce, the fired
// moves still form a legal serial execution.
func TestProjectionFaultyLinks(t *testing.T) {
	for _, sc := range stacks() {
		for _, tc := range topologies() {
			t.Run(sc.name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				runProjection(t, sc, tc, Config{
					Drop:    0.3,
					Reorder: 0.3,
					HoldMax: 3,
					Mailbox: 4,
				}, 11)
			})
		}
	}
}

// TestProjectionDetectsTamperedLog: corrupting one recorded move must
// make the oracle replay fail — the differential check has teeth.
func TestProjectionDetectsTamperedLog(t *testing.T) {
	g := graph.Ring(6)
	p, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(3)))
	rt, err := New(p, Config{Seed: 3, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntilLegitimate(context.Background(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	rt.Stop()
	if len(rt.moveLog) == 0 {
		t.Fatal("empty move log")
	}
	rt.moveLog[len(rt.moveLog)/2].Action += 1000
	oracle, err := spantree.NewBFSTree(graph.Ring(6), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckProjection(rt, oracle); err == nil {
		t.Fatal("tampered log replayed cleanly")
	}
}

// TestBackpressureMailboxOne: capacity-1 mailboxes drop most broadcast
// traffic, so convergence leans entirely on the request/reply recovery
// path and supervisor ticks. Sends never block, so no deadlock.
func TestBackpressureMailboxOne(t *testing.T) {
	g := graph.Grid(4, 4)
	p, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(5)))
	rt, err := New(p, Config{Seed: 5, Mailbox: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntilLegitimate(context.Background(), 60*time.Second); err != nil {
		t.Fatalf("convergence under backpressure: %v", err)
	}
	rt.Stop()
	if !p.Legitimate() {
		t.Fatal("not legitimate")
	}
}

// TestRunTimeoutMidDelivery: heavy drop slows convergence far past a
// tiny deadline; Run must return ErrTimeout with messages still in
// flight and shut down cleanly (leak check is in TestNoGoroutineLeaks).
func TestRunTimeoutMidDelivery(t *testing.T) {
	g := graph.Grid(5, 5)
	p, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(9)))
	rt, err := New(p, Config{Seed: 9, Drop: 0.9, Tick: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(context.Background(), func() bool { return false }, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
}

// TestCancelBeforeFirstMessage: a context cancelled before Run is even
// called must abort immediately, before any protocol message lands.
func TestCancelBeforeFirstMessage(t *testing.T) {
	g := graph.Ring(5)
	p, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(p, Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = rt.Run(ctx, func() bool { return false }, 10*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestDoubleStartAndIdempotentStop: a Runtime runs at most once;
// Stop is idempotent and safe to call repeatedly.
func TestDoubleStartAndIdempotentStop(t *testing.T) {
	g := graph.Ring(4)
	p, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(p, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
	rt.Stop()
	rt.Stop()
	if err := rt.Start(); err == nil {
		t.Fatal("Start after Stop succeeded")
	}
}

// TestCorruptNodeReconverges: service mode — Start, converge, inject a
// corruption through the admin surface, watch the armed witness notice
// and re-converge, and confirm the corruption invalidated the
// projection recording.
func TestCorruptNodeReconverges(t *testing.T) {
	g := graph.Grid(4, 4)
	p, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(21)))
	rt, err := New(p, Config{Seed: 21, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	waitFor := func(what string) {
		deadline := time.Now().Add(30 * time.Second)
		for !rt.Legitimate() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("initial convergence")
	before := rt.Metrics().Convergences
	if err := rt.CorruptNode(5); err != nil {
		t.Fatal(err)
	}
	waitFor("re-convergence after corruption")
	if rt.MoveLog() != nil {
		t.Fatal("corruption did not invalidate the move log")
	}
	_ = before // convergence counting is tick-sampled; presence checked in metrics test
}

// TestApplyDeltaResync: flap an edge through Mutate while the runtime
// is live; the repaired nodes' version bumps force their observers to
// resync, and the protocol re-converges on the new topology both
// times. A mutation that fails leaves the runtime untouched and
// returns its error.
func TestApplyDeltaResync(t *testing.T) {
	g := graph.Grid(4, 4)
	p, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(31)))
	rt, err := New(p, Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	waitFor := func(what string) {
		deadline := time.Now().Add(30 * time.Second)
		for !rt.Legitimate() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("initial convergence")
	if err := rt.Mutate(func() (graph.Delta, error) { return g.RemoveEdge(0, 1) }); err != nil {
		t.Fatal(err)
	}
	waitFor("convergence after edge removal")
	if err := rt.Mutate(func() (graph.Delta, error) { return g.AddEdge(0, 1) }); err != nil {
		t.Fatal(err)
	}
	waitFor("convergence after edge restore")
	if !p.Legitimate() {
		t.Fatal("not legitimate on restored topology")
	}
	movesBefore := rt.Moves()
	if err := rt.Mutate(func() (graph.Delta, error) { return g.AddEdge(0, 1) }); err == nil {
		t.Fatal("re-adding an existing edge succeeded")
	}
	if !rt.Legitimate() || rt.EnabledCount() != 0 || rt.Moves() != movesBefore {
		t.Fatal("a failed mutation disturbed the converged runtime")
	}
}

// TestRunUntilLegitimateRequiresPredicate: a protocol without a
// legitimacy predicate has nothing to run until, so RunUntilLegitimate
// must fail at once instead of spinning until its timeout.
func TestRunUntilLegitimateRequiresPredicate(t *testing.T) {
	o, err := spantree.NewBFSOracle(graph.Ring(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(bareProtocol{o}, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = rt.RunUntilLegitimate(context.Background(), 10*time.Second)
	if err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want an immediate missing-predicate error", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("returned after %v, want at once", d)
	}
}

// bareProtocol hides program.Legitimacy: the wrong-signature method
// shadows the embedded predicate.
type bareProtocol struct{ *spantree.Oracle }

func (bareProtocol) Legitimate() {}

// TestMetricsAccounting: counters move, conservation holds between
// sent and its disposition counters, and the convergence counter
// registers the first illegitimate→legitimate transition.
func TestMetricsAccounting(t *testing.T) {
	g := graph.Grid(4, 4)
	p, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Randomize(rand.New(rand.NewSource(41)))
	rt, err := New(p, Config{Seed: 41, Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntilLegitimate(context.Background(), 60*time.Second); err != nil {
		t.Fatal(err)
	}
	// Let the supervisor observe the legitimate state at least once.
	time.Sleep(20 * time.Millisecond)
	rt.Stop()
	m := rt.Metrics()
	if m.Sent == 0 || m.Delivered == 0 || m.Moves == 0 {
		t.Fatalf("dead counters: %+v", m)
	}
	disposed := m.Delivered + m.DroppedFault + m.DroppedFull + m.DroppedLink + m.Held
	if disposed < m.Sent {
		t.Fatalf("message accounting leak: sent=%d disposed=%d", m.Sent, disposed)
	}
	if !m.Legitimate {
		t.Fatal("metrics say illegitimate after convergence")
	}
	if m.EnabledCount != 0 {
		// BFS tree is silent once legitimate.
		t.Fatalf("enabled count %d after silence", m.EnabledCount)
	}
	if m.Convergences == 0 {
		t.Fatal("no convergence event recorded")
	}
}

// TestNoGoroutineLeaks drives every exit path — success, timeout,
// pre-cancelled context, service Start/Stop with a topology-grown
// actor set — and asserts the goroutine count returns to baseline.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	mk := func(seed int64) *Runtime {
		g := graph.Grid(4, 4)
		p, err := spantree.NewBFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.Randomize(rand.New(rand.NewSource(seed)))
		rt, err := New(p, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}

	// Success path.
	if err := mk(1).RunUntilLegitimate(context.Background(), 60*time.Second); err != nil {
		t.Fatal(err)
	}
	// Timeout path.
	if err := mk(2).Run(context.Background(), func() bool { return false }, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatal(err)
	}
	// Cancel path.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := mk(3).Run(ctx, func() bool { return false }, 10*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	// Service path with a mid-run delta.
	rt := mk(4)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Mutate(func() (graph.Delta, error) { return rt.Protocol().Graph().RemoveEdge(0, 1) }); err != nil {
		t.Fatal(err)
	}
	rt.Stop()
	waitNoLeak(t, before, 5*time.Second)
}

// The tests below run the paper's stacks and the Run exit paths on
// plain runtimes, outside the projection harness.

// TestBFSTreeConvergesOnGoroutines: a randomized BFS tree converges on
// the actor goroutines alone, firing at least one move.
func TestBFSTreeConvergesOnGoroutines(t *testing.T) {
	tr, err := spantree.NewBFSTree(graph.Grid(4, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Randomize(rand.New(rand.NewSource(1)))
	rt, err := New(tr, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntilLegitimate(context.Background(), 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if !tr.Legitimate() {
		t.Fatal("not legitimate after run")
	}
	if rt.Moves() == 0 {
		t.Fatal("no moves executed")
	}
}

// TestSTNOFullStackOnGoroutines: STNO over a BFS tree, from a random
// configuration, ends with a valid orientation.
func TestSTNOFullStackOnGoroutines(t *testing.T) {
	g := graph.Grid(3, 4)
	sub, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Randomize(rand.New(rand.NewSource(2)))
	rt, err := New(s, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntilLegitimate(context.Background(), 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Labeling().Validate(g); err != nil {
		t.Fatalf("orientation invalid after goroutine run: %v", err)
	}
}

// TestDFTNOFullStackOnGoroutines: DFTNO over the token circulator,
// from a random configuration, ends with a valid orientation.
func TestDFTNOFullStackOnGoroutines(t *testing.T) {
	g := graph.Ring(8)
	sub, err := token.NewCirculator(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDFTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Randomize(rand.New(rand.NewSource(3)))
	rt, err := New(d, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntilLegitimate(context.Background(), 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.Labeling().Validate(g); err != nil {
		t.Fatalf("orientation invalid after goroutine run: %v", err)
	}
}

// TestRunTimesOutOnUnsatisfiablePredicate: on clean links, a predicate
// that never holds ends in ErrTimeout.
func TestRunTimesOutOnUnsatisfiablePredicate(t *testing.T) {
	tr, err := spantree.NewBFSTree(graph.Ring(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(tr, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(context.Background(), func() bool { return false }, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
}

// TestRunTimesOutAfterMoves: on clean links the deadline lands while
// the actors are executing moves; Run returns ErrTimeout with moves
// already fired.
func TestRunTimesOutAfterMoves(t *testing.T) {
	tr, err := spantree.NewBFSTree(graph.Grid(12, 12), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Randomize(rand.New(rand.NewSource(17)))
	rt, err := New(tr, Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(context.Background(), func() bool { return false }, 100*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if rt.Moves() == 0 {
		t.Fatal("timed out before any move: deadline did not land mid-delivery")
	}
}

// waitNoLeak fails t unless the goroutine count falls back to before
// within the grace period.
func waitNoLeak(t *testing.T, before int, grace time.Duration) {
	t.Helper()
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestRunLeavesNoGoroutines: two runtimes over one protocol, one run to
// legitimacy and one to its timeout, leave no goroutine behind.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	tr, err := spantree.NewBFSTree(graph.Grid(4, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(tr, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunUntilLegitimate(context.Background(), 60*time.Second); err != nil {
		t.Fatal(err)
	}
	rt2, err := New(tr, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.Run(context.Background(), func() bool { return false }, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	waitNoLeak(t, before, 2*time.Second)
}

// TestLifecycleExitPathsLeaveNoGoroutines: a timeout while a randomized
// 8×8 grid is still moving, and a pre-cancelled context, leave no
// goroutine behind.
func TestLifecycleExitPathsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	tr, err := spantree.NewBFSTree(graph.Grid(8, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Randomize(rand.New(rand.NewSource(23)))
	rt, err := New(tr, Config{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(context.Background(), func() bool { return false }, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	rt2, err := New(tr, Config{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt2.Run(ctx, func() bool { return false }, 10*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	waitNoLeak(t, before, 5*time.Second)
}

// TestAdminRepairMatchesScan drives the admin surface of a runtime that
// is not running, over failover-wrapped radius-2 stacks on a grid, and
// after every delta and corruption compares the System's repaired state
// with a from-scratch evaluation: EnabledNodes against a guard scan of
// the live nodes, and Legitimate (the witness) against the protocol's
// O(n) Legitimate. A Mutate repair ball that misses a node whose guard
// or witness contribution changed fails the comparison. After every
// delta, checkRepair also compares the runtime's balls and links with
// a from-scratch computation and checks that exactly the repaired
// nodes got a new version.
func TestAdminRepairMatchesScan(t *testing.T) {
	for _, name := range []string{"dftno", "stno"} {
		t.Run(name, func(t *testing.T) {
			g := graph.Grid(5, 5)
			var in failover.Inner
			var err error
			if name == "dftno" {
				var sub *token.Circulator
				if sub, err = token.NewCirculator(g, 0); err == nil {
					in, err = core.NewDFTNO(g, sub, 0)
				}
			} else {
				var sub *spantree.BFSTree
				if sub, err = spantree.NewBFSTree(g, 0); err == nil {
					in, err = core.NewSTNO(g, sub, 0)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			p := failover.New(g, in, 0)
			if r := program.ProtocolRadius(p); r != 2 {
				t.Fatalf("radius %d, want 2", r)
			}
			// Converge serially first, so the runtime starts from the
			// legitimate configuration the service repairs from.
			if res, err := program.NewSystem(p, daemon.NewCentral(5)).RunUntilLegitimate(1 << 22); err != nil || !res.Converged {
				t.Fatalf("serial convergence: %v %+v", err, res)
			}
			rt, err := New(p, Config{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string) {
				t.Helper()
				checkScan(t, rt, p, what)
			}
			mutate := func(what string, f func() (graph.Delta, error)) {
				t.Helper()
				checkedMutate(t, rt, what, f)
				check(what)
			}
			edge := func(add bool, u, v graph.NodeID) func() (graph.Delta, error) {
				if add {
					return func() (graph.Delta, error) { return g.AddEdge(u, v) }
				}
				return func() (graph.Delta, error) { return g.RemoveEdge(u, v) }
			}
			check("start")
			checkRepair(t, rt, nil, nil, "start")
			if !rt.Legitimate() {
				t.Fatal("not legitimate at start")
			}
			mutate("flap down 12-13", edge(false, 12, 13))
			mutate("flap up 12-13", edge(true, 12, 13))
			// Cut corner 24 off, then heal it.
			mutate("cut 19-24", edge(false, 19, 24))
			mutate("cut 23-24", edge(false, 23, 24))
			mutate("heal 23-24", edge(true, 23, 24))
			mutate("heal 19-24", edge(true, 19, 24))
			mutate("crash-root", func() (graph.Delta, error) { return g.RemoveNode(0) })
			mutate("revive", func() (graph.Delta, error) {
				id, d := g.AddNode()
				if id != 0 {
					t.Fatalf("revive reclaimed slot %d, want 0", id)
				}
				return d, nil
			})
			mutate("heal 0-1", edge(true, 0, 1))
			mutate("heal 0-5", edge(true, 0, 5))
			mutate("grow", func() (graph.Delta, error) {
				id, d := g.AddNode()
				if int(id) != 25 {
					t.Fatalf("AddNode returned %d, want the fresh id 25", id)
				}
				return d, nil
			})
			mutate("link 24-25", edge(true, 24, 25))
			for _, v := range []graph.NodeID{0, 12, 25} {
				if err := rt.CorruptNode(v); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("corrupt %d", v))
			}
			mutate("flap down 6-7", edge(false, 6, 7))
			mutate("flap up 6-7", edge(true, 6, 7))
		})
	}
}
