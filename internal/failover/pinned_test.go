package failover_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"netorient/internal/daemon"
	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
)

// pinnedTrajectories holds one FNV-64a digest per layered run of
// TestLayeredTrajectoriesPinned. A change to any stack's composition
// that moves a single move, delta ball, space figure, legitimacy
// verdict or snapshot byte changes a digest.
var pinnedTrajectories = map[string]string{
	"bfs/grid:4x4/central":                    "b467df3948e576d0",
	"bfs/grid:4x4/distributed":                "af78f5eef15d916b",
	"bfs/lollipop:4:3/central":                "fa422fb78b1f236f",
	"bfs/lollipop:4:3/distributed":            "f34143fcdef0704d",
	"dfs/grid:4x4/central":                    "428e662de77b3813",
	"dfs/grid:4x4/distributed":                "cefaf153e75692f9",
	"dfs/lollipop:4:3/central":                "ca02944f648f9b21",
	"dfs/lollipop:4:3/distributed":            "c0a9ac21e4652561",
	"dftno/grid:4x4/central":                  "0f9733161d9ac3ab",
	"dftno/grid:4x4/distributed":              "1c0540efa218bdb7",
	"dftno/lollipop:4:3/central":              "df0cd293e34746af",
	"dftno/lollipop:4:3/distributed":          "b8f0d9c9f73500ae",
	"failover/bfs/grid:4x4/central":           "caee2661f5457869",
	"failover/bfs/grid:4x4/distributed":       "0e8a3eec8c24ea0e",
	"failover/bfs/lollipop:4:3/central":       "71dc55a52137bc5b",
	"failover/bfs/lollipop:4:3/distributed":   "e388046d4792d7b7",
	"failover/dfs/grid:4x4/central":           "8d87b1762555617f",
	"failover/dfs/grid:4x4/distributed":       "52a4f3ecdb9daee7",
	"failover/dfs/lollipop:4:3/central":       "2b6bbb122cce4c56",
	"failover/dfs/lollipop:4:3/distributed":   "43486e679c49a5fa",
	"failover/dftno/grid:4x4/central":         "dd404ec2379b5298",
	"failover/dftno/grid:4x4/distributed":     "470f8069d92f5a41",
	"failover/dftno/lollipop:4:3/central":     "fb89b8e7111f447d",
	"failover/dftno/lollipop:4:3/distributed": "9fe8d6e0349b7556",
	"failover/stno/grid:4x4/central":          "4843a23529740fa5",
	"failover/stno/grid:4x4/distributed":      "7ff3a40b86e3b299",
	"failover/stno/lollipop:4:3/central":      "7c7e3cceeb6b3720",
	"failover/stno/lollipop:4:3/distributed":  "10e8d04a0703cad0",
	"failover/token/grid:4x4/central":         "246f6de525387233",
	"failover/token/grid:4x4/distributed":     "5de90901f9dd4a56",
	"failover/token/lollipop:4:3/central":     "df8db92520ce4317",
	"failover/token/lollipop:4:3/distributed": "7740ece4ba26fb10",
	"stno/grid:4x4/central":                   "3196a157bf218691",
	"stno/grid:4x4/distributed":               "e92a85fcf118bab0",
	"stno/lollipop:4:3/central":               "e737c62d7b47c0bf",
	"stno/lollipop:4:3/distributed":           "b53174f4bec0ada5",
	"token/grid:4x4/central":                  "6c252eaf9df179f0",
	"token/grid:4x4/distributed":              "6819474d478ff35e",
	"token/lollipop:4:3/central":              "677b3747c3d5572d",
	"token/lollipop:4:3/distributed":          "3b09284d06f44488",
}

// trajectoryHash digests one scripted run.
type trajectoryHash struct {
	h   hash.Hash64
	buf [binary.MaxVarintLen64]byte
}

func (t *trajectoryHash) writeInt(x int64) {
	t.h.Write(t.buf[:binary.PutVarint(t.buf[:], x)])
}

func (t *trajectoryHash) writeBool(b bool) {
	if b {
		t.writeInt(1)
	} else {
		t.writeInt(0)
	}
}

func (t *trajectoryHash) writeString(s string) {
	t.writeInt(int64(len(s)))
	t.h.Write([]byte(s))
}

// phaseEnd digests every node's StateBits, both legitimacy verdicts
// (the witness freshly reset) and the engine's counters.
func (t *trajectoryHash) phaseEnd(p program.Protocol, sys *program.System) {
	g := p.Graph()
	if m, ok := p.(program.SpaceMeter); ok {
		for v := range graph.NodeID(g.N()) {
			t.writeInt(int64(m.StateBits(v)))
		}
	}
	legit, wit := verdicts(p)
	t.writeBool(legit)
	t.writeBool(wit)
	t.writeInt(sys.Moves())
	t.writeInt(sys.Steps())
	t.writeInt(sys.Rounds())
}

// runScript drives p through the pinned script and returns its digest:
// a randomized start and 300 steps; three corruptions and 200 steps;
// an edge cut, its heal, a crash of node crash, its revive and the
// growth of a fresh node, each through ApplyDelta and followed by 50
// steps; then RunUntilLegitimate on a budget.
func runScript(t *testing.T, g *graph.Graph, p program.Protocol, d program.Daemon, seed int64, crash graph.NodeID) string {
	t.Helper()
	th := &trajectoryHash{h: fnv.New64a()}
	sys := program.NewSystem(p, d)
	sys.MoveHook = func(mv program.Move) {
		th.writeInt(int64(mv.Node))
		th.writeInt(int64(mv.Action))
		th.writeString(program.ActionName(p, mv.Action))
	}
	rng := rand.New(rand.NewSource(seed))
	steps := func(k int) {
		for range k {
			if _, err := sys.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply := func(dlt graph.Delta, err error) {
		if err != nil {
			t.Fatal(err)
		}
		sys.ApplyDelta(dlt)
		for _, v := range sys.DeltaBall() {
			th.writeInt(int64(v))
		}
		th.writeInt(-1)
		steps(50)
	}

	p.(program.Randomizer).Randomize(rng)
	sys.Invalidate()
	steps(300)
	th.phaseEnd(p, sys)

	for range 3 {
		p.(program.NodeCorruptor).CorruptNode(graph.NodeID(rng.Intn(g.N())), rng)
	}
	sys.Invalidate()
	steps(200)
	th.phaseEnd(p, sys)

	u := graph.NodeID(4)
	w := g.Neighbors(u)[0]
	apply(g.RemoveEdge(u, w))
	apply(g.AddEdge(u, w))
	nbrs := g.NeighborsCopy(crash)
	apply(g.RemoveNode(crash))
	revived, dlt := g.AddNode()
	if revived != crash {
		t.Fatalf("revived node %d, want %d", revived, crash)
	}
	apply(dlt, nil)
	for _, q := range nbrs {
		if q != graph.None {
			apply(g.AddEdge(crash, q))
		}
	}
	grown, dlt := g.AddNode()
	apply(dlt, nil)
	apply(g.AddEdge(grown, 1))
	th.phaseEnd(p, sys)

	res, err := sys.RunUntilLegitimate(20000)
	if err != nil {
		t.Fatal(err)
	}
	th.writeBool(res.Converged)
	th.phaseEnd(p, sys)
	if s, ok := p.(program.Snapshotter); ok {
		th.h.Write(s.Snapshot())
	}
	return fmt.Sprintf("%016x", th.h.Sum64())
}

// TestLayeredTrajectoriesPinned pins every stack, bare and
// failover-wrapped, on two graphs under the central and the
// distributed daemon: the digest of each scripted run (every fired
// move with its name, every delta ball in order, every node's
// StateBits and both legitimacy verdicts at each phase end, and the
// final snapshot) must equal the recorded one. Bare stacks crash node
// 5; wrapped stacks crash the fixed root.
func TestLayeredTrajectoriesPinned(t *testing.T) {
	t.Parallel()
	daemons := map[string]func(seed int64) program.Daemon{
		"central":     func(seed int64) program.Daemon { return daemon.NewCentral(seed) },
		"distributed": func(seed int64) program.Daemon { return daemon.NewDistributed(seed, 0.5) },
	}
	got := map[string]string{}
	for name, build := range inners() {
		for _, wrapped := range []bool{false, true} {
			for _, spec := range []string{"grid:4x4", "lollipop:4:3"} {
				for dname, mk := range daemons {
					key := fmt.Sprintf("%s/%s/%s", name, spec, dname)
					crash := graph.NodeID(5)
					if wrapped {
						key = "failover/" + key
						crash = 0
					}
					g, err := graph.Named(spec)
					if err != nil {
						t.Fatal(err)
					}
					in, err := build(g)
					if err != nil {
						t.Fatal(err)
					}
					var p program.Protocol = in
					if wrapped {
						p = failover.New(g, in, 0)
					}
					got[key] = runScript(t, g, p, mk(7), 11, crash)
				}
			}
		}
	}
	for k, v := range got {
		if want, ok := pinnedTrajectories[k]; !ok || v != want {
			t.Errorf("%s: digest %s, want %s", k, v, want)
		}
	}
	if len(got) != len(pinnedTrajectories) {
		t.Errorf("%d runs, %d recorded digests", len(got), len(pinnedTrajectories))
	}
}
