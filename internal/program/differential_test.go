package program_test

// Differential scheduler tests: the incremental enabled-set scheduler
// (program.NewSystem) must produce bit-identical executions to the
// legacy full-scan oracle (program.NewSystemFullScan) — identical
// fired-move counts per step, identical move/step/round totals, and
// identical final snapshots — for every protocol stack in the library
// under every daemon. Because the daemons are seeded and consume
// randomness per Select call, any divergence in candidate enumeration
// (ordering, membership, action lists) desynchronises the executions
// and the test fails loudly.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netorient/internal/core"
	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
	"netorient/internal/token"
)

// diffTarget is what the differential harness needs from a protocol.
type diffTarget interface {
	program.Protocol
	program.Snapshotter
	program.Randomizer
}

// protoBuilders constructs two independent instances of every protocol
// stack on g; both instances of a pair must behave identically given
// identical configurations.
func protoBuilders() map[string]func(g *graph.Graph) (diffTarget, error) {
	return map[string]func(g *graph.Graph) (diffTarget, error){
		"dftc": func(g *graph.Graph) (diffTarget, error) {
			return token.NewCirculator(g, 0)
		},
		"dftc-oracle": func(g *graph.Graph) (diffTarget, error) {
			return token.NewOracle(g, 0)
		},
		"bfstree": func(g *graph.Graph) (diffTarget, error) {
			return spantree.NewBFSTree(g, 0)
		},
		"dfstree": func(g *graph.Graph) (diffTarget, error) {
			return spantree.NewDFSTree(g, 0)
		},
		"dftno/dftc": func(g *graph.Graph) (diffTarget, error) {
			sub, err := token.NewCirculator(g, 0)
			if err != nil {
				return nil, err
			}
			return core.NewDFTNO(g, sub, 0)
		},
		"stno/bfstree": func(g *graph.Graph) (diffTarget, error) {
			sub, err := spantree.NewBFSTree(g, 0)
			if err != nil {
				return nil, err
			}
			return core.NewSTNO(g, sub, 0)
		},
		// The radius-2 influence case: STNO guards read Parent() of
		// their neighbours, and the DFS tree derives Parent from the
		// neighbours' path variables.
		"stno/dfstree": func(g *graph.Graph) (diffTarget, error) {
			sub, err := spantree.NewDFSTree(g, 0)
			if err != nil {
				return nil, err
			}
			return core.NewSTNO(g, sub, 0)
		},
	}
}

// diffDaemons builds one seeded daemon per scheduling model. The two
// systems get daemons from separate calls with the same seed, so their
// random streams match move for move.
func diffDaemons(seed int64) map[string]func() program.Daemon {
	return map[string]func() program.Daemon{
		"central":       func() program.Daemon { return daemon.NewCentral(seed) },
		"synchronous":   func() program.Daemon { return daemon.NewSynchronous(seed) },
		"distributed":   func() program.Daemon { return daemon.NewDistributed(seed, 0.5) },
		"round-robin":   func() program.Daemon { return daemon.NewRoundRobin() },
		"deterministic": func() program.Daemon { return daemon.NewDeterministic() },
	}
}

// TestSchedulerEquivalence locksteps the incremental and full-scan
// runners from identical random configurations and asserts identical
// executions.
func TestSchedulerEquivalence(t *testing.T) {
	t.Parallel()
	graphs := map[string]*graph.Graph{
		"grid3x4": graph.Grid(3, 4),
		"ring7":   graph.Ring(7),
	}
	const maxSteps = 1500
	for gname, g := range graphs {
		for pname, build := range protoBuilders() {
			for dname, mkDaemon := range diffDaemons(11) {
				t.Run(fmt.Sprintf("%s/%s/%s", gname, pname, dname), func(t *testing.T) {
					t.Parallel()
					pInc, err := build(g)
					if err != nil {
						t.Fatal(err)
					}
					pFull, err := build(g)
					if err != nil {
						t.Fatal(err)
					}
					// Identical adversarial starts on both instances.
					pInc.Randomize(rand.New(rand.NewSource(99)))
					pFull.Randomize(rand.New(rand.NewSource(99)))
					if string(pInc.Snapshot()) != string(pFull.Snapshot()) {
						t.Fatal("instances disagree before any step; Randomize is not deterministic")
					}

					inc := program.NewSystem(pInc, mkDaemon())
					full := program.NewSystemFullScan(pFull, mkDaemon())
					for i := 0; i < maxSteps; i++ {
						nInc, errInc := inc.Step()
						nFull, errFull := full.Step()
						if errInc != nil || errFull != nil {
							t.Fatalf("step %d: errors inc=%v full=%v", i, errInc, errFull)
						}
						if nInc != nFull {
							t.Fatalf("step %d: fired %d moves incrementally, %d under full scan", i, nInc, nFull)
						}
						if a, b := inc.EnabledNodes(nil), full.EnabledNodes(nil); !slices.Equal(a, b) {
							t.Fatalf("step %d: enabled nodes diverge: %v vs %v", i, a, b)
						}
						if nInc == 0 {
							break
						}
					}
					if inc.Moves() != full.Moves() || inc.Steps() != full.Steps() || inc.Rounds() != full.Rounds() {
						t.Fatalf("counters diverge: incremental (moves=%d steps=%d rounds=%d) vs full scan (moves=%d steps=%d rounds=%d)",
							inc.Moves(), inc.Steps(), inc.Rounds(), full.Moves(), full.Steps(), full.Rounds())
					}
					if string(pInc.Snapshot()) != string(pFull.Snapshot()) {
						t.Fatalf("final configurations diverge after %d steps", inc.Steps())
					}
					if inc.EnabledCount() != full.EnabledCount() {
						t.Fatalf("enabled counts diverge: %d vs %d", inc.EnabledCount(), full.EnabledCount())
					}
				})
			}
		}
	}
}

// TestSchedulerEquivalenceAcrossInvalidate mutates the protocol behind
// the system's back mid-run and checks that Invalidate resynchronises
// the incremental cache with the full-scan oracle.
func TestSchedulerEquivalenceAcrossInvalidate(t *testing.T) {
	t.Parallel()
	g := graph.Grid(3, 3)
	build := protoBuilders()["dftno/dftc"]
	pInc, err := build(g)
	if err != nil {
		t.Fatal(err)
	}
	pFull, err := build(g)
	if err != nil {
		t.Fatal(err)
	}
	pInc.Randomize(rand.New(rand.NewSource(5)))
	pFull.Randomize(rand.New(rand.NewSource(5)))
	inc := program.NewSystem(pInc, daemon.NewCentral(3))
	full := program.NewSystemFullScan(pFull, daemon.NewCentral(3))
	corrupt := rand.New(rand.NewSource(17))
	corrupt2 := rand.New(rand.NewSource(17))
	for phase := 0; phase < 4; phase++ {
		for i := 0; i < 50; i++ {
			nInc, errInc := inc.Step()
			nFull, errFull := full.Step()
			if errInc != nil || errFull != nil || nInc != nFull {
				t.Fatalf("phase %d step %d: inc=(%d,%v) full=(%d,%v)", phase, i, nInc, errInc, nFull, errFull)
			}
		}
		pInc.(program.NodeCorruptor).CorruptNode(graph.NodeID(phase), corrupt)
		pFull.(program.NodeCorruptor).CorruptNode(graph.NodeID(phase), corrupt2)
		inc.Invalidate()
		// In both modes Invalidate restarts round tracking from the
		// corrupted configuration; the rounds assertion below depends
		// on both runners restarting together.
		full.Invalidate()
	}
	if string(pInc.Snapshot()) != string(pFull.Snapshot()) {
		t.Fatal("configurations diverge after interleaved corruption")
	}
	// Invalidate restarts round tracking in both schedulers, so the
	// counters must still agree.
	if inc.Moves() != full.Moves() || inc.Rounds() != full.Rounds() {
		t.Fatalf("counters diverge: inc moves=%d rounds=%d, full moves=%d rounds=%d",
			inc.Moves(), inc.Rounds(), full.Moves(), full.Rounds())
	}
}

// Legacy daemons: verbatim re-implementations of the pre-EnabledSet
// schedulers over materialised candidate slices, wrapped with
// legacyAdapter. TestDaemonEquivalenceAcrossAPI locksteps them against
// the sampling daemons and asserts bit-identical executions, pinning
// both halves of the API migration: the new daemons consume
// randomness exactly as the old ones did, and the adapter reproduces
// the old candidate lists exactly.

// legacyDaemon is the pre-EnabledSet daemon contract: Select receives
// every enabled processor with its enabled actions as a materialised
// slice, in ascending node order.
type legacyDaemon interface {
	Name() string
	Select(cands []program.Candidate) []program.Move
}

// legacyAdapter materialises an EnabledSet into the candidate slice a
// legacyDaemon expects.
type legacyAdapter struct{ d legacyDaemon }

func (a legacyAdapter) Name() string { return a.d.Name() }

func (a legacyAdapter) Select(set program.EnabledSet) []program.Move {
	cands := make([]program.Candidate, set.Len())
	for i := range cands {
		cands[i] = program.Candidate{Node: set.At(i), Actions: set.Actions(i, nil)}
	}
	return a.d.Select(cands)
}

// TestLegacyAdapterPreservesSelection pins the adapter on its own: a
// legacyDaemon wrapped in legacyAdapter keeps its name and sees the
// same candidate list the pre-EnabledSet runner would have handed it.
func TestLegacyAdapterPreservesSelection(t *testing.T) {
	var d program.Daemon = legacyAdapter{legacyPickSecond{}}
	if d.Name() != "pick-second" {
		t.Errorf("adapter name %q", d.Name())
	}
	set := program.CandidateSet{
		{Node: 3, Actions: []program.ActionID{0, 1}},
		{Node: 7, Actions: []program.ActionID{0, 1}},
		{Node: 9, Actions: []program.ActionID{0, 1}},
	}
	mv := d.Select(set)[0]
	if mv.Node != 7 || mv.Action != 1 {
		t.Fatalf("adapted daemon picked node %d action %d, want node 7 action 1", mv.Node, mv.Action)
	}
}

// legacyPickSecond picks the second action of the second candidate.
type legacyPickSecond struct{}

func (legacyPickSecond) Name() string { return "pick-second" }
func (legacyPickSecond) Select(cands []program.Candidate) []program.Move {
	c := cands[1]
	return []program.Move{{Node: c.Node, Action: c.Actions[1]}}
}

type legacyCentral struct {
	rng *rand.Rand
	buf []program.Move
}

func (d *legacyCentral) Name() string { return "central" }
func (d *legacyCentral) Select(cands []program.Candidate) []program.Move {
	c := cands[d.rng.Intn(len(cands))]
	d.buf = append(d.buf[:0], program.Move{Node: c.Node, Action: c.Actions[d.rng.Intn(len(c.Actions))]})
	return d.buf
}

type legacySynchronous struct {
	rng *rand.Rand
	buf []program.Move
}

func (d *legacySynchronous) Name() string { return "synchronous" }
func (d *legacySynchronous) Select(cands []program.Candidate) []program.Move {
	moves := d.buf[:0]
	for _, c := range cands {
		moves = append(moves, program.Move{Node: c.Node, Action: c.Actions[d.rng.Intn(len(c.Actions))]})
	}
	d.rng.Shuffle(len(moves), func(i, j int) { moves[i], moves[j] = moves[j], moves[i] })
	d.buf = moves
	return moves
}

type legacyDistributed struct {
	rng *rand.Rand
	buf []program.Move
	p   float64
}

func (d *legacyDistributed) Name() string { return "distributed" }
func (d *legacyDistributed) Select(cands []program.Candidate) []program.Move {
	moves := d.buf[:0]
	for _, c := range cands {
		if d.rng.Float64() < d.p {
			moves = append(moves, program.Move{Node: c.Node, Action: c.Actions[d.rng.Intn(len(c.Actions))]})
		}
	}
	if len(moves) == 0 {
		c := cands[d.rng.Intn(len(cands))]
		moves = append(moves, program.Move{Node: c.Node, Action: c.Actions[d.rng.Intn(len(c.Actions))]})
	}
	d.rng.Shuffle(len(moves), func(i, j int) { moves[i], moves[j] = moves[j], moves[i] })
	d.buf = moves
	return moves
}

type legacyRoundRobin struct {
	next int
	buf  []program.Move
}

func (d *legacyRoundRobin) Name() string { return "round-robin" }
func (d *legacyRoundRobin) Select(cands []program.Candidate) []program.Move {
	rrKey := func(node, from int) int {
		const large = 1 << 30
		if node >= from {
			return node - from
		}
		return node - from + large
	}
	best := cands[0]
	bestKey := rrKey(int(best.Node), d.next)
	for _, c := range cands[1:] {
		if k := rrKey(int(c.Node), d.next); k < bestKey {
			best, bestKey = c, k
		}
	}
	d.next = int(best.Node) + 1
	d.buf = append(d.buf[:0], program.Move{Node: best.Node, Action: best.Actions[0]})
	return d.buf
}

type legacyDeterministic struct{ buf []program.Move }

func (d *legacyDeterministic) Name() string { return "deterministic" }
func (d *legacyDeterministic) Select(cands []program.Candidate) []program.Move {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Node < best.Node {
			best = c
		}
	}
	a := best.Actions[0]
	for _, x := range best.Actions[1:] {
		if x < a {
			a = x
		}
	}
	d.buf = append(d.buf[:0], program.Move{Node: best.Node, Action: a})
	return d.buf
}

// legacyDiffDaemons pairs each new-API daemon with its legacy
// re-implementation under the same seed.
func legacyDiffDaemons(seed int64) map[string]func() (program.Daemon, program.Daemon) {
	return map[string]func() (program.Daemon, program.Daemon){
		"central": func() (program.Daemon, program.Daemon) {
			return daemon.NewCentral(seed), legacyAdapter{&legacyCentral{rng: rand.New(rand.NewSource(seed))}}
		},
		"synchronous": func() (program.Daemon, program.Daemon) {
			return daemon.NewSynchronous(seed), legacyAdapter{&legacySynchronous{rng: rand.New(rand.NewSource(seed))}}
		},
		"distributed": func() (program.Daemon, program.Daemon) {
			return daemon.NewDistributed(seed, 0.5), legacyAdapter{&legacyDistributed{rng: rand.New(rand.NewSource(seed)), p: 0.5}}
		},
		"round-robin": func() (program.Daemon, program.Daemon) {
			return daemon.NewRoundRobin(), legacyAdapter{&legacyRoundRobin{}}
		},
		"deterministic": func() (program.Daemon, program.Daemon) {
			return daemon.NewDeterministic(), legacyAdapter{&legacyDeterministic{}}
		},
	}
}

// TestDaemonEquivalenceAcrossAPI locksteps every new-API daemon
// against its adapted legacy re-implementation across every protocol
// stack and several seeds, asserting identical executions step for
// step. Both sides run on the incremental scheduler, so any divergence
// is attributable to daemon selection alone.
func TestDaemonEquivalenceAcrossAPI(t *testing.T) {
	t.Parallel()
	g := graph.Grid(3, 4)
	const maxSteps = 1200
	seeds := []int64{3, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for pname, build := range protoBuilders() {
		for _, seed := range seeds {
			for dname, mk := range legacyDiffDaemons(seed) {
				t.Run(fmt.Sprintf("%s/%s/seed%d", pname, dname, seed), func(t *testing.T) {
					t.Parallel()
					pNew, err := build(g)
					if err != nil {
						t.Fatal(err)
					}
					pOld, err := build(g)
					if err != nil {
						t.Fatal(err)
					}
					pNew.Randomize(rand.New(rand.NewSource(seed * 7)))
					pOld.Randomize(rand.New(rand.NewSource(seed * 7)))
					dNew, dOld := mk()
					sysNew := program.NewSystem(pNew, dNew)
					sysOld := program.NewSystem(pOld, dOld)
					for i := 0; i < maxSteps; i++ {
						nNew, errNew := sysNew.Step()
						nOld, errOld := sysOld.Step()
						if errNew != nil || errOld != nil || nNew != nOld {
							t.Fatalf("step %d: new=(%d,%v) legacy=(%d,%v)", i, nNew, errNew, nOld, errOld)
						}
						if nNew == 0 {
							break
						}
					}
					if sysNew.Moves() != sysOld.Moves() || sysNew.Rounds() != sysOld.Rounds() {
						t.Fatalf("counters diverge: new moves=%d rounds=%d, legacy moves=%d rounds=%d",
							sysNew.Moves(), sysNew.Rounds(), sysOld.Moves(), sysOld.Rounds())
					}
					if string(pNew.Snapshot()) != string(pOld.Snapshot()) {
						t.Fatal("final configurations diverge between new and legacy daemon APIs")
					}
				})
			}
		}
	}
}

// TestLocalityDeclarations audits every protocol's influence
// declaration empirically: executing any enabled action must not
// change guards outside the declared set, on random configurations.
func TestLocalityDeclarations(t *testing.T) {
	t.Parallel()
	g := graph.Grid(3, 4)
	configs := 25
	if testing.Short() {
		configs = 6
	}
	for pname, build := range protoBuilders() {
		t.Run(pname, func(t *testing.T) {
			t.Parallel()
			p, err := build(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := program.CheckLocality(p, configs, rand.New(rand.NewSource(23))); err != nil {
				t.Fatal(err)
			}
		})
	}
}
