package actor

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"netorient/internal/churn"
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
		var seen graph.Marks
		for v := 0; v < g.N(); v++ {
			id := graph.NodeID(v)
			var want []graph.NodeID
			for _, q := range program.InfluenceBall(g, id, rt.radius, &seen, nil) {
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

// flapCost measures the allocations and bytes of one Mutate pair that
// removes and restores an interior edge of a rows×cols grid, after
// warm-up.
func flapCost(t testing.TB, rows, cols int) (allocs, bytes float64) {
	g := graph.Grid(rows, cols)
	rt, err := New(failoverDFTNO(t, g), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := graph.NodeID(rows/2*cols + cols/2)
	flap := func() {
		_ = rt.Mutate(func() (graph.Delta, error) { return g.RemoveEdge(u, u+1) })
		_ = rt.Mutate(func() (graph.Delta, error) { return g.AddEdge(u, u+1) })
	}
	allocs = testing.AllocsPerRun(50, flap)
	const runs = 50
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		flap()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestMutateFlapAllocsLocal: an interior-edge flap allocates no more,
// in count or in bytes, on grid:32x32 than on grid:10x10, up to a small
// slack. Rebuilding every ball, the whole link map or any n-sized
// array on a delta would scale them with n; a count alone misses a few
// large allocations.
func TestMutateFlapAllocsLocal(t *testing.T) {
	smallN, smallB := flapCost(t, 10, 10)
	largeN, largeB := flapCost(t, 32, 32)
	t.Logf("per flap: %v allocs, %v B on grid:10x10; %v allocs, %v B on grid:32x32", smallN, smallB, largeN, largeB)
	if largeN > smallN+4 {
		t.Errorf("flap allocs: %v on grid:32x32, %v on grid:10x10", largeN, smallN)
	}
	if largeB > smallB+256 {
		t.Errorf("flap bytes: %v on grid:32x32, %v on grid:10x10", largeB, smallB)
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

// oracleNames derives DFTNO's reference naming from scratch for the
// roots authority a declares: one fresh graph.DFSPreorder per live
// effective root in id order, skipping a root an earlier preorder
// already named; nodes no root reaches are −1.
func oracleNames(g *graph.Graph, a program.RootAuthority) []int {
	names := make([]int, g.N())
	for v := range names {
		names[v] = -1
	}
	for v := 0; v < g.N(); v++ {
		id := graph.NodeID(v)
		if !g.Alive(id) || !a.IsRoot(id) || names[id] >= 0 {
			continue
		}
		order, _ := graph.DFSPreorder(g, id)
		for i, w := range order {
			names[w] = i
		}
	}
	return names
}

// TestLiveReferenceNamingMatchesOracle drives a running runtime
// through seeded flaps, cuts, crashes, revivals, partitions and heals
// while a second goroutine keeps reading the naming and the legitimacy
// verdict through Locked. After every Mutate and every re-convergence
// (one acting root per component), DFTNO's reference naming, brought
// up to date with the acting roots, must equal a from-scratch per-root
// DFS preorder: the in-place rebuild runs while actors execute.
func TestLiveReferenceNamingMatchesOracle(t *testing.T) {
	g := graph.Grid(5, 5)
	p := failoverDFTNO(t, g)
	d := p.Inner().(*core.DFTNO)
	rng := rand.New(rand.NewSource(5))
	p.Randomize(rng)
	rt, err := New(p, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.Locked(func() { _ = d.ReferenceNames() })
			_ = rt.Legitimate()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	defer func() { close(stop); <-done }()

	maxRoots := 0
	check := func(what string) {
		t.Helper()
		rt.Locked(func() {
			d.Legitimate() // re-derives the naming if the acting roots moved
			if got, want := d.ReferenceNames(), oracleNames(g, p); !slices.Equal(got, want) {
				t.Fatalf("%s: reference naming\n got %v\nwant %v", what, got, want)
			}
			roots := 0
			for v := 0; v < g.N(); v++ {
				if id := graph.NodeID(v); g.Alive(id) && p.IsRoot(id) {
					roots++
				}
			}
			maxRoots = max(maxRoots, roots)
		})
	}
	mutate := func(what string, f func() (graph.Delta, error)) {
		t.Helper()
		if err := rt.Mutate(f); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		check(what)
	}
	settle := func(what string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !rt.Legitimate() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
		check(what + " settled")
	}
	settle("initial convergence")
	var cut []graph.Edge
	for op := 0; op < 12; op++ {
		switch k := rng.Intn(4); {
		case k == 0: // flap
			edges := g.Edges()
			e := edges[rng.Intn(len(edges))]
			mutate(fmt.Sprintf("op %d flap down %v", op, e), func() (graph.Delta, error) { return g.RemoveEdge(e.U, e.V) })
			mutate(fmt.Sprintf("op %d flap up %v", op, e), func() (graph.Delta, error) { return g.AddEdge(e.U, e.V) })
		case k == 1 && g.NAlive() == g.N(): // crash a non-root node
			v := graph.NodeID(1 + rng.Intn(g.N()-1))
			for _, q := range g.Neighbors(v) {
				if q != graph.None {
					cut = append(cut, graph.Edge{U: v, V: q})
				}
			}
			mutate(fmt.Sprintf("op %d crash %d", op, v), func() (graph.Delta, error) { return g.RemoveNode(v) })
		case k == 1: // revive the dead node; its edges heal below
			mutate(fmt.Sprintf("op %d revive", op), func() (graph.Delta, error) {
				_, dl := g.AddNode()
				return dl, nil
			})
		case k == 2: // partition a region off
			region, ok := churn.PickPartitionCut(g, 0, 2+rng.Intn(4), rng)
			if !ok {
				continue
			}
			for _, e := range region {
				mutate(fmt.Sprintf("op %d partition cut %v", op, e), func() (graph.Delta, error) { return g.RemoveEdge(e.U, e.V) })
			}
			cut = append(cut, region...)
		case k == 3: // heal every cut edge whose endpoints are alive
			kept := cut[:0]
			for _, e := range cut {
				if !g.Alive(e.U) || !g.Alive(e.V) {
					kept = append(kept, e)
					continue
				}
				if !g.HasEdge(e.U, e.V) {
					mutate(fmt.Sprintf("op %d heal %v", op, e), func() (graph.Delta, error) { return g.AddEdge(e.U, e.V) })
				}
			}
			cut = kept
		}
		settle(fmt.Sprintf("op %d", op))
	}
	if maxRoots < 2 {
		t.Fatal("no check saw several acting roots")
	}
}
