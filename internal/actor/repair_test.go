package actor

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"netorient/internal/core"
	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/token"
)

// failoverDFTNO builds the service stack: DFTNO over the token
// circulator, wrapped by the root-failover layer (radius 2).
func failoverDFTNO(t testing.TB, g *graph.Graph) *failover.Protocol {
	t.Helper()
	sub, err := token.NewCirculator(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewDFTNO(g, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	return failover.New(g, in, 0)
}

// checkScan compares the System's repaired state with a from-scratch
// evaluation: EnabledNodes against a guard scan of the live nodes, and
// Legitimate (the witness) against the protocol's O(n) Legitimate.
func checkScan(t *testing.T, rt *Runtime, p *failover.Protocol, what string) {
	t.Helper()
	var want []graph.NodeID
	var scan bool
	rt.Locked(func() {
		for v := 0; v < rt.g.N(); v++ {
			if id := graph.NodeID(v); rt.g.Alive(id) && len(p.Enabled(id, nil)) > 0 {
				want = append(want, id)
			}
		}
		scan = p.Legitimate()
	})
	if got := rt.EnabledNodes(nil); !slices.Equal(got, want) {
		t.Fatalf("after %s: EnabledNodes %v, guard scan %v", what, got, want)
	}
	if got := rt.Legitimate(); got != scan {
		t.Fatalf("after %s: Legitimate %v, scan %v", what, got, scan)
	}
}

// checkRepair compares the runtime's incrementally repaired topology
// state with a from-scratch computation: ball[v] is v's radius-R
// InfluenceBall minus v for every v, the link set is exactly
// {(v,q): v and q alive, q ∈ ball[v]} with each link aimed at q's
// mailbox, and — when d is non-nil — the nodes whose version changed
// since before are exactly the repaired set d.Touched ∪ DeltaBall.
func checkRepair(t *testing.T, rt *Runtime, before []uint64, d *graph.Delta, what string) {
	t.Helper()
	rt.Locked(func() {
		g := rt.g
		if len(rt.ball) != g.N() || len(rt.ver) != g.N() || len(rt.mbox) != g.N() {
			t.Fatalf("after %s: per-node arrays %d/%d/%d, N=%d", what, len(rt.ball), len(rt.ver), len(rt.mbox), g.N())
		}
		nlinks := 0
		for v := 0; v < g.N(); v++ {
			id := graph.NodeID(v)
			var want []graph.NodeID
			for _, q := range program.InfluenceBall(g, id, rt.radius, nil) {
				if q != id {
					want = append(want, q)
				}
			}
			got := slices.Clone(rt.ball[v])
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("after %s: ball[%d] = %v, InfluenceBall %v", what, v, got, want)
			}
			for _, q := range want {
				if !g.Alive(id) || !g.Alive(q) {
					continue
				}
				nlinks++
				l := rt.links[linkKey(id, q)]
				if l == nil {
					t.Fatalf("after %s: link %d→%d missing", what, v, q)
				}
				if l.dst != rt.mbox[q] {
					t.Fatalf("after %s: link %d→%d not aimed at %d's mailbox", what, v, q, q)
				}
			}
		}
		if len(rt.links) != nlinks {
			t.Fatalf("after %s: %d links, want %d", what, len(rt.links), nlinks)
		}
		if d == nil {
			return
		}
		repaired := map[graph.NodeID]bool{}
		for _, u := range d.Touched {
			repaired[u] = true
		}
		for _, u := range rt.sys.DeltaBall() {
			repaired[u] = true
		}
		for v, ver := range rt.ver {
			var old uint64
			if v < len(before) {
				old = before[v]
			}
			if changed := ver != old; changed != repaired[graph.NodeID(v)] {
				t.Fatalf("after %s: node %d version %d→%d, in repaired set: %v", what, v, old, ver, repaired[graph.NodeID(v)])
			}
		}
	})
}

// checkedMutate runs one Mutate and checkRepair on its delta, and
// checks that every link the delta kept is the same link, so its
// hold-back queue and fault stream survive the repair.
func checkedMutate(t *testing.T, rt *Runtime, what string, f func() (graph.Delta, error)) {
	t.Helper()
	var before []uint64
	var links map[uint64]*link
	rt.Locked(func() { before, links = slices.Clone(rt.ver), maps.Clone(rt.links) })
	var d graph.Delta
	if err := rt.Mutate(func() (graph.Delta, error) {
		var err error
		d, err = f()
		return d, err
	}); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	checkRepair(t, rt, before, &d, what)
	rt.Locked(func() {
		for k, l := range rt.links {
			if old, ok := links[k]; ok && old != l {
				t.Fatalf("after %s: kept link %d→%d was re-created", what, k>>32, uint32(k))
			}
		}
	})
}

// TestRandomMutationsRepairLocally drives a runtime that is not
// running through seeded random flaps, cuts and heals, crashes,
// revivals and id-space growth on grid:6x6 under failover-wrapped
// DFTNO, and after every Mutate checks the delta-local repair of
// balls, links and versions against a from-scratch computation, and
// the System's repaired guard cache and witness against a scan.
func TestRandomMutationsRepairLocally(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			g := graph.Grid(6, 6)
			p := failoverDFTNO(t, g)
			rng := rand.New(rand.NewSource(seed))
			p.Randomize(rng)
			rt, err := New(p, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			checkRepair(t, rt, nil, nil, "New")
			var cut []graph.Edge
			randomAlive := func() graph.NodeID {
				for {
					if v := graph.NodeID(rng.Intn(g.N())); g.Alive(v) {
						return v
					}
				}
			}
			edge := func(add bool, e graph.Edge) func() (graph.Delta, error) {
				if add {
					return func() (graph.Delta, error) { return g.AddEdge(e.U, e.V) }
				}
				return func() (graph.Delta, error) { return g.RemoveEdge(e.U, e.V) }
			}
			for op := 0; op < 30; op++ {
				edges := g.Edges()
				switch k := rng.Intn(6); {
				case k == 0 && len(edges) > 0: // flap
					e := edges[rng.Intn(len(edges))]
					checkedMutate(t, rt, fmt.Sprintf("op %d flap down %v", op, e), edge(false, e))
					checkedMutate(t, rt, fmt.Sprintf("op %d flap up %v", op, e), edge(true, e))
				case k == 1 && len(edges) > 0: // cut
					e := edges[rng.Intn(len(edges))]
					checkedMutate(t, rt, fmt.Sprintf("op %d cut %v", op, e), edge(false, e))
					cut = append(cut, e)
				case k == 2 && len(cut) > 0: // heal
					i := rng.Intn(len(cut))
					e := cut[i]
					cut = slices.Delete(cut, i, i+1)
					if g.Alive(e.U) && g.Alive(e.V) && !g.HasEdge(e.U, e.V) {
						checkedMutate(t, rt, fmt.Sprintf("op %d heal %v", op, e), edge(true, e))
					}
				case k == 3 && g.NAlive() > g.N()/2: // crash
					v := randomAlive()
					for _, q := range g.Neighbors(v) {
						if q != graph.None {
							cut = append(cut, graph.Edge{U: v, V: q})
						}
					}
					checkedMutate(t, rt, fmt.Sprintf("op %d crash %d", op, v), func() (graph.Delta, error) { return g.RemoveNode(v) })
				case k == 4 || k == 5: // revive a dead slot, or grow the id space
					var id graph.NodeID
					checkedMutate(t, rt, fmt.Sprintf("op %d add node", op), func() (graph.Delta, error) {
						var d graph.Delta
						id, d = g.AddNode()
						return d, nil
					})
					for i := 0; i < 2; i++ {
						if q := randomAlive(); q != id && !g.HasEdge(id, q) {
							checkedMutate(t, rt, fmt.Sprintf("op %d link %d-%d", op, id, q), edge(true, graph.Edge{U: id, V: q}))
						}
					}
				}
				checkScan(t, rt, p, fmt.Sprint("op ", op))
			}
		})
	}
}

// flapAllocs measures the allocations of one Mutate pair that removes
// and restores an interior edge of a rows×cols grid.
func flapAllocs(t testing.TB, rows, cols int) float64 {
	g := graph.Grid(rows, cols)
	rt, err := New(failoverDFTNO(t, g), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := graph.NodeID(rows/2*cols + cols/2)
	return testing.AllocsPerRun(50, func() {
		_ = rt.Mutate(func() (graph.Delta, error) { return g.RemoveEdge(u, u+1) })
		_ = rt.Mutate(func() (graph.Delta, error) { return g.AddEdge(u, u+1) })
	})
}

// TestMutateFlapAllocsLocal: an interior-edge flap allocates no more
// on grid:32x32 than on grid:10x10, up to a small slack. Rebuilding
// every ball or the whole link map on a delta would scale the count
// with n.
func TestMutateFlapAllocsLocal(t *testing.T) {
	small, large := flapAllocs(t, 10, 10), flapAllocs(t, 32, 32)
	t.Logf("flap allocs: %v on grid:10x10, %v on grid:32x32", small, large)
	if large > small+4 {
		t.Fatalf("flap allocs: %v on grid:32x32, %v on grid:10x10", large, small)
	}
}

// BenchmarkRuntimeMutateFlap measures one interior-edge flap (a
// removing and a restoring Mutate) on grid:10x10 under
// failover-wrapped DFTNO, the service stack.
func BenchmarkRuntimeMutateFlap(b *testing.B) {
	g := graph.Grid(10, 10)
	rt, err := New(failoverDFTNO(b, g), Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	u := graph.NodeID(5*10 + 5)
	b.ReportAllocs()
	for b.Loop() {
		if err := rt.Mutate(func() (graph.Delta, error) { return g.RemoveEdge(u, u+1) }); err != nil {
			b.Fatal(err)
		}
		if err := rt.Mutate(func() (graph.Delta, error) { return g.AddEdge(u, u+1) }); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLiveMutationsRepairLocally flaps random edges of a running
// runtime over faulty links, so Mutate edits the link map while actors
// send through it, checks the repaired balls and links after every
// delta, and requires re-convergence after every flap.
func TestLiveMutationsRepairLocally(t *testing.T) {
	g := graph.Grid(5, 5)
	p := failoverDFTNO(t, g)
	rng := rand.New(rand.NewSource(9))
	p.Randomize(rng)
	rt, err := New(p, Config{Seed: 9, Drop: 0.1, Reorder: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	waitLegit := func(what string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !rt.Legitimate() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitLegit("initial convergence")
	for i := 0; i < 10; i++ {
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		for _, add := range []bool{false, true} {
			what := fmt.Sprintf("flap %d %v add=%v", i, e, add)
			if err := rt.Mutate(func() (graph.Delta, error) {
				if add {
					return g.AddEdge(e.U, e.V)
				}
				return g.RemoveEdge(e.U, e.V)
			}); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkRepair(t, rt, nil, nil, what)
			waitLegit(what)
		}
	}
}
