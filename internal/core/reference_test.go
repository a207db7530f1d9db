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
	"netorient/internal/spantree"
)

// referenceOracle derives d's reference forest from scratch: one
// graph.DFSPreorder per live effective root in id order (the fixed root
// alone when no authority is bound), each with fresh slices, ports from
// graph.PortOf, and the last names from subtree sizes summed in reverse
// preorder. A root inside an already-named component is skipped
// (counted in shared); nodes no root reaches get name, last and port −1
// and parent None.
func referenceOracle(d *DFTNO) (names, last, port []int, parent []graph.NodeID, roots, shared int) {
	n := d.g.N()
	names, last, port, parent = make([]int, n), make([]int, n), make([]int, n), make([]graph.NodeID, n)
	for v := range names {
		names[v], last[v], port[v], parent[v] = -1, -1, -1, graph.None
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
			if p := par[v]; p != graph.None {
				port[v], _ = d.g.PortOf(p, v)
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			size[v]++
			if p := par[v]; p != graph.None {
				size[p] += size[v]
			}
		}
		for _, v := range order {
			last[v] = names[v] + size[v] - 1
		}
	}
	for v := 0; v < n; v++ {
		if id := graph.NodeID(v); d.g.Alive(id) && d.roots.IsRoot(id) {
			run(id)
		}
	}
	return names, last, port, parent, roots, shared
}

// refChecker compares d's reference forest with referenceOracle. prev
// is a second forest grown at the last check, so rebuilding it replays
// the rebuild from the state the last check saw.
type refChecker struct {
	t        *testing.T
	d        *DFTNO
	prev     graph.Forest
	prevN    int
	checks   int
	changes  int // checks whose naming differed from the one before
	maxRoots int // most effective roots at one check
	shared   int // checks with two effective roots in one component
}

// mark records the forest a later check compares against.
func (c *refChecker) mark() {
	c.prev.DFS(c.d.g, c.d.roots.AppendLive)
	c.prevN = c.d.g.N()
}

// check brings the naming up to date with the authority (as every
// legitimacy query does) and requires d's forest to equal the oracle's.
// It then replays the rebuild on the forest held since the last check
// and requires its verdict to be exactly "the tree changed", and the
// tree to change only with the naming, so that the verdict re-arms
// DFTNO's witness no more often than a naming comparison would. The
// replayed forest becomes the next check's mark.
func (c *refChecker) check(what string) {
	c.t.Helper()
	d := c.d
	d.OwnFresh()
	names, last, port, parent, roots, shared := referenceOracle(d)
	same := func(stage string, f *graph.Forest) {
		c.t.Helper()
		for v := range graph.NodeID(d.g.N()) {
			if f.Name(v) != names[v] || f.Last(v) != last[v] || f.Parent(v) != parent[v] || f.Reached(v) != (names[v] >= 0) {
				c.t.Fatalf("%s (%s): node %d has name %d, last %d, parent %d, reached %v; want %d, %d, %d",
					what, stage, v, f.Name(v), f.Last(v), f.Parent(v), f.Reached(v), names[v], last[v], parent[v])
			}
			if names[v] >= 0 && !f.IsPortPath(v, portPath(parent, port, v)) {
				c.t.Fatalf("%s (%s): node %d is not at the end of its oracle port path", what, stage, v)
			}
		}
	}
	same("after the delta", &d.ref)
	renamed, regrown := false, false
	for v := range graph.NodeID(d.g.N()) {
		name, lst, par, onPath := -1, -1, graph.None, false // a new id starts unreached
		if int(v) < c.prevN {
			name, lst, par = c.prev.Name(v), c.prev.Last(v), c.prev.Parent(v)
			onPath = c.prev.IsPortPath(v, portPath(parent, port, v))
		}
		renamed = renamed || name != names[v] || lst != last[v]
		regrown = regrown || par != parent[v] || onPath != (names[v] >= 0)
	}
	if regrown && !renamed {
		c.t.Fatalf("%s: the tree changed but the naming did not", what)
	}
	if got := c.prev.DFS(d.g, d.roots.AppendLive); got != regrown {
		c.t.Fatalf("%s: rebuild from the previous forest reported changed=%v, want %v", what, got, regrown)
	}
	c.prevN = d.g.N()
	same("replayed rebuild", &c.prev)
	c.checks++
	if renamed {
		c.changes++
	}
	c.maxRoots = max(c.maxRoots, roots)
	if shared > 0 {
		c.shared++
	}
}

// portPath returns the oracle's ports from v's root down to v.
func portPath(parent []graph.NodeID, port []int, v graph.NodeID) []int {
	var path []int
	for ; parent[v] != graph.None; v = parent[v] {
		path = append([]int{port[v]}, path...)
	}
	return path
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
				if d.ref.TreeEdge(e.U, e.V) {
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
// flap of the edge {u,v} on the engine driving proto over g: those of a
// removing and a restoring mutation applied to the engine, minus those
// of the same graph mutations alone.
func flapApplyAllocs(t *testing.T, g *graph.Graph, proto program.Protocol, sys *program.System, u, v graph.NodeID) float64 {
	t.Helper()
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
	withEngine := testing.AllocsPerRun(50, flap(true))
	return withEngine - testing.AllocsPerRun(50, flap(false))
}

// dftnoFlapAllocs returns flapApplyAllocs for a tree edge of the
// reference DFS on a rows×cols grid, on bare or failover-wrapped
// DFTNO, and checks that every flap rebuilt the reference naming twice.
func dftnoFlapAllocs(t *testing.T, rows, cols int, wrapped bool) float64 {
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
	if d.ref.Parent(v) != u {
		t.Fatalf("{%d,%d} is not a tree edge of the reference DFS", u, v)
	}
	rebuilds := d.RefRebuilds
	a := flapApplyAllocs(t, g, proto, sys, u, v)
	if d.RefRebuilds-rebuilds != 2*51 {
		t.Fatalf("%d reference rebuilds over 51 engine flaps, want 2 per flap", d.RefRebuilds-rebuilds)
	}
	return a
}

// TestApplyDeltaTreeFlapAllocatesNothing gates the in-place reference
// rebuild: after warm-up, System.ApplyDelta of a tree-edge flap
// allocates nothing on bare and failover-wrapped DFTNO, on grid:10x10
// and grid:32x32.
func TestApplyDeltaTreeFlapAllocatesNothing(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		for _, side := range []int{10, 32} {
			if a := dftnoFlapAllocs(t, side, side, wrapped); a != 0 {
				t.Errorf("failover=%v grid:%dx%d: ApplyDelta allocates %v per tree-edge flap, want 0", wrapped, side, side, a)
			}
		}
	}
}

// TestApplyDeltaSpanningTreeFlapAllocatesNothing gates the spanning
// trees' reference forests the same way: after stabilization,
// System.ApplyDelta of a flap of a tree edge allocates nothing on
// BFSTree and DFSTree, on grid:10x10 and grid:32x32.
func TestApplyDeltaSpanningTreeFlapAllocatesNothing(t *testing.T) {
	for _, kind := range []string{"bfstree", "dfstree"} {
		for _, side := range []int{10, 32} {
			g := graph.Grid(side, side)
			var tree interface {
				program.Protocol
				Parent(graph.NodeID) graph.NodeID
			}
			var err error
			if kind == "bfstree" {
				tree, err = spantree.NewBFSTree(g, 0)
			} else {
				tree, err = spantree.NewDFSTree(g, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			sys := program.NewSystem(tree, daemon.NewCentral(1))
			if res, err := sys.RunUntilLegitimate(1 << 24); err != nil || !res.Converged {
				t.Fatalf("%s grid:%dx%d did not stabilize: %v", kind, side, side, err)
			}
			// A stabilized tree's parents are its reference forest's.
			u, v := graph.NodeID(0), g.Neighbor(0, 0)
			if tree.Parent(v) != u {
				t.Fatalf("%s: {%d,%d} is not a tree edge", kind, u, v)
			}
			if a := flapApplyAllocs(t, g, tree, sys, u, v); a != 0 {
				t.Errorf("%s grid:%dx%d: ApplyDelta allocates %v per tree-edge flap, want 0", kind, side, side, a)
			}
		}
	}
}
