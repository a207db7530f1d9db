package token

import (
	"math/rand"
	"testing"

	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
)

// testGraphs returns the small topologies used throughout the
// substrate tests.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"path4":    graph.Path(4),
		"ring5":    graph.Ring(5),
		"star5":    graph.Star(5),
		"clique4":  graph.Complete(4),
		"paper":    graph.PaperTokenExample(),
		"tree7":    graph.KAryTree(7, 2),
		"grid3x3":  graph.Grid(3, 3),
		"lollipop": graph.Lollipop(4, 3),
	}
}

// visitRecorder tracks forward events per round.
type visitRecorder struct {
	rounds  int
	current []graph.NodeID
	all     [][]graph.NodeID
	parents map[graph.NodeID]graph.NodeID
}

func newVisitRecorder() *visitRecorder {
	return &visitRecorder{parents: make(map[graph.NodeID]graph.NodeID)}
}

func (r *visitRecorder) OnRootStart(root graph.NodeID) {
	if r.current != nil {
		r.all = append(r.all, r.current)
	}
	r.rounds++
	r.current = []graph.NodeID{root}
}

func (r *visitRecorder) OnForward(v, parent graph.NodeID) {
	r.current = append(r.current, v)
	r.parents[v] = parent
}

func (r *visitRecorder) OnBacktrack(v, child graph.NodeID) {}

func TestCirculatorCleanRoundVisitsAllInDFSOrder(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			c, err := NewCirculator(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			rec := newVisitRecorder()
			c.SetObserver(rec)
			sys := program.NewSystem(c, daemon.NewDeterministic())
			// Run three full rounds.
			for rec.rounds < 4 {
				if _, err := sys.Step(); err != nil {
					t.Fatal(err)
				}
				if sys.Steps() > int64(100*(g.N()+g.M())) {
					t.Fatalf("no progress after %d steps (rounds=%d)", sys.Steps(), rec.rounds)
				}
			}
			wantOrder, wantParent := graph.DFSPreorder(g, 0)
			for roundIdx, visits := range rec.all {
				if len(visits) != g.N() {
					t.Fatalf("round %d visited %d nodes, want %d: %v", roundIdx, len(visits), g.N(), visits)
				}
				for i, v := range visits {
					if v != wantOrder[i] {
						t.Fatalf("round %d visit order %v, want %v", roundIdx, visits, wantOrder)
					}
				}
			}
			for v, p := range rec.parents {
				if wantParent[v] != p {
					t.Errorf("node %d has parent %d, want %d", v, p, wantParent[v])
				}
			}
		})
	}
}

func TestCirculatorLegitimateInitially(t *testing.T) {
	g := graph.Ring(5)
	c, err := NewCirculator(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Legitimate() {
		t.Fatal("freshly constructed circulator is not legitimate")
	}
}

func TestCirculatorLegitimacyClosedAlongCleanRun(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			c, err := NewCirculator(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			sys := program.NewSystem(c, daemon.NewDeterministic())
			for i := 0; i < 20*(g.N()+g.M()); i++ {
				if !c.Legitimate() {
					t.Fatalf("illegitimate configuration after %d clean steps", i)
				}
				if _, err := sys.Step(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestCirculatorExactlyOneEnabledWhenLegitimate(t *testing.T) {
	g := graph.PaperTokenExample()
	c, err := NewCirculator(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := program.NewSystem(c, daemon.NewDeterministic())
	var buf []program.ActionID
	for i := 0; i < 200; i++ {
		total := 0
		for v := 0; v < g.N(); v++ {
			buf = c.Enabled(graph.NodeID(v), buf[:0])
			total += len(buf)
		}
		if total != 1 {
			t.Fatalf("step %d: %d enabled moves in legitimate configuration, want 1", i, total)
		}
		if _, err := sys.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCirculatorConvergesFromRandomStates is the statistical half of
// the self-stabilization verification: from arbitrary configurations
// under randomized daemons, the system reaches a legitimate
// configuration.
func TestCirculatorConvergesFromRandomStates(t *testing.T) {
	daemons := map[string]func(seed int64) program.Daemon{
		"central":     func(s int64) program.Daemon { return daemon.NewCentral(s) },
		"distributed": func(s int64) program.Daemon { return daemon.NewDistributed(s, 0.5) },
		"synchronous": func(s int64) program.Daemon { return daemon.NewSynchronous(s) },
	}
	for name, g := range testGraphs(t) {
		for dname, mk := range daemons {
			t.Run(name+"/"+dname, func(t *testing.T) {
				c, err := NewCirculator(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(42))
				for trial := 0; trial < 25; trial++ {
					c.Randomize(rng)
					sys := program.NewSystem(c, mk(int64(trial)))
					res, err := sys.RunUntilLegitimate(int64(2000 * (g.N() + g.M())))
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatalf("trial %d: no convergence after %d moves", trial, res.Moves)
					}
				}
			})
		}
	}
}

// TestCirculatorKeepsCirculatingAfterConvergence checks liveness: the
// token keeps completing rounds forever (fairness property of §3.1).
func TestCirculatorKeepsCirculatingAfterConvergence(t *testing.T) {
	g := graph.Grid(3, 3)
	c, err := NewCirculator(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	c.Randomize(rng)
	sys := program.NewSystem(c, daemon.NewCentral(7))
	if res, err := sys.RunUntilLegitimate(200000); err != nil || !res.Converged {
		t.Fatalf("convergence failed: %v %+v", err, res)
	}
	startRound := c.Round()
	for i := 0; i < 20000 && c.Round() < startRound+5; i++ {
		if _, err := sys.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Round() < startRound+5 {
		t.Fatalf("token stopped circulating: round %d after start %d", c.Round(), startRound)
	}
}

func TestCirculatorSnapshotRoundTrip(t *testing.T) {
	g := graph.Ring(6)
	c, err := NewCirculator(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		c.Randomize(rng)
		snap := c.Snapshot()
		// Mutate, then restore.
		c.Randomize(rng)
		if err := c.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if got := string(c.Snapshot()); got != string(snap) {
			t.Fatalf("snapshot round-trip mismatch at trial %d", i)
		}
	}
}

func TestCirculatorSnapshotShiftInvariant(t *testing.T) {
	g := graph.Path(3)
	a, err := NewCirculator(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCirculator(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Steady-state between-rounds configurations of different rounds
	// must snapshot identically: the counters differ by a global
	// shift, which normalization removes. (The freshly constructed
	// state is not on the steady cycle — parents and levels are still
	// unset — so we compare round 2 against round 4.)
	betweenRounds := func(c *Circulator, round uint64) string {
		sys := program.NewSystem(c, daemon.NewDeterministic())
		for c.Round() < round || !c.Done(0) {
			if _, err := sys.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return string(c.Snapshot())
	}
	snapA := betweenRounds(a, 2)
	snapB := betweenRounds(b, 4)
	if snapA != snapB {
		t.Fatal("between-round snapshots differ across rounds; shift normalization broken")
	}
}

func TestCirculatorRejectsBadConstruction(t *testing.T) {
	g := graph.Ring(4)
	if _, err := NewCirculator(g, 99); err == nil {
		t.Error("expected error for out-of-range root")
	}
	// Disconnected graphs are accepted: the clean initial state is
	// between-rounds in the root's component and silent in the orphan
	// one, so it is legitimate per component from the start.
	b := graph.NewBuilder(4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 3)
	c, err := NewCirculator(b.Build(), 0)
	if err != nil {
		t.Fatalf("disconnected graph rejected: %v", err)
	}
	if !c.Legitimate() {
		t.Error("fresh disconnected circulator not legitimate per component")
	}
}

func TestCirculatorHasTokenUniqueWhenLegitimate(t *testing.T) {
	g := graph.KAryTree(7, 2)
	c, err := NewCirculator(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := program.NewSystem(c, daemon.NewDeterministic())
	for i := 0; i < 300; i++ {
		holders := 0
		for v := 0; v < g.N(); v++ {
			if c.HasToken(graph.NodeID(v)) {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("step %d: %d token holders, want exactly 1", i, holders)
		}
		if _, err := sys.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWitnessResetReleasesGrownTable: a witness reset reuses its bucket
// table, but a table that a randomized start grew far past what a reset
// of the stabilized system fills is made afresh, so the start's buckets
// are not kept for good.
func TestWitnessResetReleasesGrownTable(t *testing.T) {
	g := graph.Grid(16, 16)
	c, err := NewCirculator(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Randomize(rand.New(rand.NewSource(1)))
	c.WitnessReset()
	if c.wit.peak < g.N()/4 {
		t.Fatalf("a randomized start fills %d buckets, want at least %d", c.wit.peak, g.N()/4)
	}
	sys := program.NewSystem(c, daemon.NewCentral(1))
	if res, err := sys.RunUntilLegitimate(1 << 22); err != nil || !res.Converged {
		t.Fatalf("did not stabilize: %v", err)
	}
	c.WitnessReset()
	c.WitnessReset()
	if c.wit.peak != c.wit.fill || c.wit.fill > 2 {
		t.Fatalf("after stabilization the table peaked at %d entries with %d filled, want the at most 2 a reset fills", c.wit.peak, c.wit.fill)
	}
}
