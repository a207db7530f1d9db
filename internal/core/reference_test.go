package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netorient/internal/churn"
	"netorient/internal/daemon"
	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
)

// referenceOracle derives d's reference naming from scratch: one
// graph.DFSPreorder per live effective root in id order (the fixed root
// alone when no authority is bound), each with fresh slices, and
// maxSub from subtree sizes summed in reverse preorder. A root inside
// an already-named component is skipped (counted in shared); nodes no
// root reaches get name and maxSub −1 and parent None.
func referenceOracle(d *DFTNO) (names, maxSub []int, parent []graph.NodeID, roots, shared int) {
	n := d.g.N()
	names, maxSub, parent = make([]int, n), make([]int, n), make([]graph.NodeID, n)
	for v := range names {
		names[v], maxSub[v], parent[v] = -1, -1, graph.None
	}
	size := make([]int, n)
	run := func(root graph.NodeID) {
		roots++
		if names[root] >= 0 {
			shared++
			return
		}
		order, par := graph.DFSPreorder(d.g, root)
		for i, v := range order {
			names[v], parent[v] = i, par[v]
		}
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			size[v]++
			if p := par[v]; p != graph.None {
				size[p] += size[v]
			}
		}
		for _, v := range order {
			maxSub[v] = names[v] + size[v] - 1
		}
	}
	for v := 0; v < n; v++ {
		if id := graph.NodeID(v); d.g.Alive(id) && d.roots.IsRoot(id) {
			run(id)
		}
	}
	return names, maxSub, parent, roots, shared
}

// refChecker compares d's reference naming with referenceOracle.
type refChecker struct {
	t        *testing.T
	d        *DFTNO
	oldNames []int
	oldMax   []int
	checks   int
	changes  int // checks whose naming differed from the one before
	maxRoots int // most effective roots at one check
	shared   int // checks with two effective roots in one component
}

// mark records the naming a later check compares against.
func (c *refChecker) mark() {
	c.oldNames, c.oldMax = slices.Clone(c.d.refNames), slices.Clone(c.d.maxSub)
}

// check brings the naming up to date with the authority (as every
// legitimacy query does), requires refNames, maxSub and refParent to
// equal the oracle's, then replays the rebuild from the naming held at
// the last mark and requires its verdict to be exactly "the naming
// changed since the mark". It re-marks at the end.
func (c *refChecker) check(what string) {
	c.t.Helper()
	d := c.d
	d.ensureRef()
	names, maxSub, parent, roots, shared := referenceOracle(d)
	same := func(stage string) {
		c.t.Helper()
		if !slices.Equal(d.refNames, names) {
			c.t.Fatalf("%s (%s): refNames\n got %v\nwant %v", what, stage, d.refNames, names)
		}
		if !slices.Equal(d.maxSub, maxSub) {
			c.t.Fatalf("%s (%s): maxSub\n got %v\nwant %v", what, stage, d.maxSub, maxSub)
		}
		if !slices.Equal(d.refParent, parent) {
			c.t.Fatalf("%s (%s): refParent\n got %v\nwant %v", what, stage, d.refParent, parent)
		}
	}
	same("after the delta")
	want := !slices.Equal(c.oldNames, names) || !slices.Equal(c.oldMax, maxSub)
	d.refNames, d.maxSub = slices.Clone(c.oldNames), slices.Clone(c.oldMax)
	if got := d.rebuildReference(); got != want {
		c.t.Fatalf("%s: rebuild from the previous naming reported changed=%v, want %v", what, got, want)
	}
	same("replayed rebuild")
	c.checks++
	if want {
		c.changes++
	}
	c.maxRoots = max(c.maxRoots, roots)
	if shared > 0 {
		c.shared++
	}
	c.mark()
}

// TestReferenceRebuildMatchesOracle drives seeded random mutation
// sequences — flaps, tree-edge cuts, crashes, revives, partitions,
// heals and id-space growth, with engine steps between them — on bare
// and failover-wrapped DFTNO over the serial engine, and after every
// delta and every run of steps requires the in-place reference walk to
// equal a from-scratch per-root DFSPreorder derivation, including its
// "changed" verdict.
func TestReferenceRebuildMatchesOracle(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("failover=%v/seed%d", wrapped, seed), func(t *testing.T) {
				t.Parallel()
				referenceSequence(t, wrapped, seed)
			})
		}
	}
}

func referenceSequence(t *testing.T, wrapped bool, seed int64) {
	const root = graph.NodeID(0)
	g := graph.Grid(5, 5)
	d := newDFTNOCirculator(t, g, root)
	var proto program.Protocol = d
	if wrapped {
		proto = failover.New(g, d, root)
	}
	rng := rand.New(rand.NewSource(seed))
	sys := program.NewSystem(proto, daemon.NewCentral(seed))
	c := &refChecker{t: t, d: d}
	c.mark()

	mutate := func(what string, f func() (graph.Delta, error)) {
		t.Helper()
		dl, err := f()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		sys.ApplyDelta(dl)
		c.check(what)
	}
	randomAlive := func() graph.NodeID {
		for {
			if v := graph.NodeID(rng.Intn(g.N())); g.Alive(v) {
				return v
			}
		}
	}
	var cut []graph.Edge
	for op := 0; op < 40; op++ {
		edges := g.Edges()
		switch k := rng.Intn(6); {
		case k == 0 && len(edges) > 0: // flap
			e := edges[rng.Intn(len(edges))]
			mutate(fmt.Sprintf("op %d flap down %v", op, e), func() (graph.Delta, error) { return g.RemoveEdge(e.U, e.V) })
			mutate(fmt.Sprintf("op %d flap up %v", op, e), func() (graph.Delta, error) { return g.AddEdge(e.U, e.V) })
		case k == 1: // cut a tree edge of the reference DFS
			var tree []graph.Edge
			for _, e := range edges {
				if d.refParent[e.U] == e.V || d.refParent[e.V] == e.U {
					tree = append(tree, e)
				}
			}
			if len(tree) == 0 {
				continue
			}
			e := tree[rng.Intn(len(tree))]
			mutate(fmt.Sprintf("op %d tree cut %v", op, e), func() (graph.Delta, error) { return g.RemoveEdge(e.U, e.V) })
			cut = append(cut, e)
		case k == 2 && g.NAlive() > g.N()/2: // crash a non-root node
			v := randomAlive()
			if v == root {
				continue
			}
			for _, q := range g.Neighbors(v) {
				if q != graph.None {
					cut = append(cut, graph.Edge{U: min(v, q), V: max(v, q)})
				}
			}
			mutate(fmt.Sprintf("op %d crash %d", op, v), func() (graph.Delta, error) { return g.RemoveNode(v) })
		case k == 3: // revive a dead slot, or grow the id space
			var id graph.NodeID
			mutate(fmt.Sprintf("op %d add node", op), func() (graph.Delta, error) {
				var dl graph.Delta
				id, dl = g.AddNode()
				return dl, nil
			})
			for i := 0; i < 2; i++ {
				if q := randomAlive(); q != id && !g.HasEdge(id, q) {
					mutate(fmt.Sprintf("op %d link %d-%d", op, id, q), func() (graph.Delta, error) { return g.AddEdge(id, q) })
				}
			}
		case k == 4: // partition a region off
			region, ok := churn.PickPartitionCut(g, root, 2+rng.Intn(5), rng)
			if !ok {
				continue
			}
			for _, e := range region {
				mutate(fmt.Sprintf("op %d partition cut %v", op, e), func() (graph.Delta, error) { return g.RemoveEdge(e.U, e.V) })
			}
			cut = append(cut, region...)
		case k == 5 && len(cut) > 0: // heal
			i := rng.Intn(len(cut))
			e := cut[i]
			cut = slices.Delete(cut, i, i+1)
			if g.Alive(e.U) && g.Alive(e.V) && !g.HasEdge(e.U, e.V) {
				mutate(fmt.Sprintf("op %d heal %v", op, e), func() (graph.Delta, error) { return g.AddEdge(e.U, e.V) })
			}
		}
		// Steps between deltas move the acting roots: a few leave the
		// election mid-way, a full run settles one root per component.
		switch rng.Intn(3) {
		case 1:
			for s := rng.Intn(40); s > 0; s-- {
				if _, err := sys.Step(); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			if _, err := sys.RunUntilLegitimate(int64(200 * (g.N() + g.M()))); err != nil {
				t.Fatal(err)
			}
		}
		c.check(fmt.Sprintf("op %d steps", op))
	}
	t.Logf("%d checks, %d naming changes, at most %d effective roots, %d checks with a shared component",
		c.checks, c.changes, c.maxRoots, c.shared)
	if c.changes == 0 {
		t.Fatal("no check saw the naming change")
	}
	if wrapped && (c.maxRoots < 2 || c.shared == 0) {
		t.Fatal("no check saw several effective roots, or two in one component")
	}
}

// flapApplyAllocs returns the allocations System.ApplyDelta adds to a
// flap of a tree edge of the reference DFS on a rows×cols grid, bare
// or failover-wrapped: those of a removing and a restoring mutation
// applied to the engine, minus those of the same graph mutations
// alone. Both flaps rebuild the reference naming.
func flapApplyAllocs(t *testing.T, rows, cols int, wrapped bool) float64 {
	t.Helper()
	g := graph.Grid(rows, cols)
	d := newDFTNOCirculator(t, g, 0)
	var proto program.Protocol = d
	if wrapped {
		proto = failover.New(g, d, 0)
	}
	sys := program.NewSystem(proto, daemon.NewCentral(1))
	if _, err := sys.RunUntil(func() bool { return false }, 200); err != nil {
		t.Fatal(err)
	}
	if !proto.(program.Legitimacy).Legitimate() {
		t.Fatal("not legitimate before the flap")
	}
	u, v := graph.NodeID(0), g.Neighbor(0, 0)
	if d.refParent[v] != u {
		t.Fatalf("{%d,%d} is not a tree edge of the reference DFS", u, v)
	}
	flap := func(apply bool) func() {
		return func() {
			dl, err := g.RemoveEdge(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if apply {
				sys.ApplyDelta(dl)
			}
			if dl, err = g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if apply {
				sys.ApplyDelta(dl)
			}
		}
	}
	rebuilds := d.RefRebuilds
	withEngine := testing.AllocsPerRun(50, flap(true))
	if d.RefRebuilds-rebuilds != 2*51 {
		t.Fatalf("%d reference rebuilds over 51 flaps, want 2 per flap", d.RefRebuilds-rebuilds)
	}
	return withEngine - testing.AllocsPerRun(50, flap(false))
}

// TestApplyDeltaTreeFlapAllocatesNothing gates the in-place reference
// rebuild: after warm-up, System.ApplyDelta of a tree-edge flap
// allocates nothing on bare and failover-wrapped DFTNO, on grid:10x10
// and grid:32x32.
func TestApplyDeltaTreeFlapAllocatesNothing(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		for _, side := range []int{10, 32} {
			if a := flapApplyAllocs(t, side, side, wrapped); a != 0 {
				t.Errorf("failover=%v grid:%dx%d: ApplyDelta allocates %v per tree-edge flap, want 0", wrapped, side, side, a)
			}
		}
	}
}
