package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// rootList returns the root appender a Forest walk takes, listing rs.
func rootList(rs ...NodeID) func([]NodeID) []NodeID {
	return func(buf []NodeID) []NodeID { return append(buf, rs...) }
}

// forestCase is one graph with the roots a forest is grown from.
type forestCase struct {
	name  string
	g     *Graph
	roots []NodeID
}

// forestCases covers the generator families, a holed grid with a dead
// node, a split graph with a rootless component, and second roots
// inside components an earlier root already walked.
func forestCases(t *testing.T) []forestCase {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	random, err := GnpAny(40, 0.06, rng)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Barabasi(60, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	cases := []forestCase{
		{"ring:9", Ring(9), []NodeID{0}},
		{"path:7", Path(7), []NodeID{3}},
		{"star:6", Star(6), []NodeID{2}},
		{"clique:6", Complete(6), []NodeID{0}},
		{"wheel:8", Wheel(8), []NodeID{5}},
		{"grid:6x7", Grid(6, 7), []NodeID{0}},
		{"torus:4x5", Torus(4, 5), []NodeID{7}},
		{"hypercube:4", Hypercube(4), []NodeID{0}},
		{"tree:15:2", KAryTree(15, 2), []NodeID{4}},
		{"caterpillar:4:2", Caterpillar(4, 2), []NodeID{0}},
		{"lollipop:5:4", Lollipop(5, 4), []NodeID{8}},
		{"paper-token", PaperTokenExample(), []NodeID{0}},
		{"paper-tree", PaperTreeExample(), []NodeID{0}},
		{"random:30", RandomConnected(30, 20, rng), []NodeID{11}},
		{"gnp-any:40", random, []NodeID{0, 13, 27}},
		{"barabasi:60:2", ba, []NodeID{0}},
		// A second root inside a component the first root already
		// walked: the first root's tree wins.
		{"grid:5x5/two-roots", Grid(5, 5), []NodeID{12, 3}},
		{"ring:8/two-roots", Ring(8), []NodeID{5, 0}},
	}

	holed := Grid(6, 6)
	for _, e := range [][2]NodeID{{0, 1}, {7, 13}, {20, 21}, {14, 15}} {
		if _, err := holed.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := holed.RemoveNode(8); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, forestCase{"grid:6x6/holes+dead", holed, []NodeID{0}})

	// Two columns cut off the right of a grid: the left part has a
	// root, the right part none.
	split := Grid(4, 6)
	for r := 0; r < 4; r++ {
		if _, err := split.RemoveEdge(NodeID(6*r+3), NodeID(6*r+4)); err != nil {
			t.Fatal(err)
		}
	}
	if split.Components() != 2 {
		t.Fatalf("split grid has %d components, want 2", split.Components())
	}
	cases = append(cases,
		forestCase{"grid:4x6/rootless-part", split, []NodeID{0}},
		forestCase{"grid:4x6/both-parts", split, []NodeID{5, 0, 14}})
	return cases
}

// checkDFS compares f with one DFSPreorder per root, in order, skipping
// a root an earlier traversal reached.
func checkDFS(t *testing.T, c forestCase, f *Forest) {
	t.Helper()
	n := c.g.N()
	name, last, parent := make([]int, n), make([]int, n), make([]NodeID, n)
	for v := range name {
		name[v], last[v], parent[v] = -1, -1, None
	}
	for _, r := range c.roots {
		if name[r] >= 0 {
			continue
		}
		order, par := DFSPreorder(c.g, r)
		for i, v := range order {
			name[v], parent[v] = i, par[v]
		}
		size := make([]int, n)
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			size[v]++
			if par[v] != None {
				size[par[v]] += size[v]
			}
			last[v] = name[v] + size[v] - 1
		}
	}
	for v := range NodeID(n) {
		if f.Name(v) != name[v] || f.Last(v) != last[v] || f.Parent(v) != parent[v] || f.Reached(v) != (name[v] >= 0) {
			t.Fatalf("%s DFS: node %d has name %d, last %d, parent %d, reached %v; want %d, %d, %d",
				c.name, v, f.Name(v), f.Last(v), f.Parent(v), f.Reached(v), name[v], last[v], parent[v])
		}
		var path []int
		for u := v; parent[u] != None; u = parent[u] {
			p, _ := c.g.PortOf(parent[u], u)
			path = append([]int{p}, path...)
		}
		if name[v] >= 0 && !f.IsPortPath(v, path) {
			t.Fatalf("%s DFS: node %d is not at the end of port path %v", c.name, v, path)
		}
		if name[v] >= 0 && len(path) > 0 && f.IsPortPath(v, path[1:]) {
			t.Fatalf("%s DFS: node %d matches the shortened port path %v", c.name, v, path[1:])
		}
		if name[v] < 0 && f.IsPortPath(v, path) {
			t.Fatalf("%s DFS: unreached node %d matches a port path", c.name, v)
		}
	}
}

// checkBFS compares f with one BFSFrom per root: every depth is the
// least distance from a root, and where one root reaches a node first
// and alone, the parent is that traversal's.
func checkBFS(t *testing.T, c forestCase, f *Forest) {
	t.Helper()
	n := c.g.N()
	depth, parent, owners := make([]int, n), make([]NodeID, n), make([]int, n)
	for v := range depth {
		depth[v], parent[v] = -1, None
	}
	for _, r := range c.roots {
		dist, par := BFSFrom(c.g, r)
		for v, d := range dist {
			if d >= 0 {
				owners[v]++
				if depth[v] < 0 || d < depth[v] {
					depth[v], parent[v] = d, par[v]
				}
			}
		}
	}
	for v := range NodeID(n) {
		if f.Depth(v) != depth[v] || f.Reached(v) != (depth[v] >= 0) {
			t.Fatalf("%s BFS: node %d has depth %d, reached %v; want %d", c.name, v, f.Depth(v), f.Reached(v), depth[v])
		}
		p := f.Parent(v)
		switch {
		case depth[v] <= 0:
			if p != None {
				t.Fatalf("%s BFS: root or unreached node %d has parent %d", c.name, v, p)
			}
		case owners[v] == 1 && p != parent[v]:
			t.Fatalf("%s BFS: node %d has parent %d, want %d", c.name, v, p, parent[v])
		case p == None || !c.g.HasEdge(p, v) || depth[p] != depth[v]-1:
			t.Fatalf("%s BFS: node %d at depth %d has parent %d", c.name, v, depth[v], p)
		}
	}
}

// TestForestMatchesReference grows both kinds of forest over every
// case and compares them with graph.DFSPreorder and graph.BFSFrom from
// each root, the first root winning; an immediate repeat reports no
// change.
func TestForestMatchesReference(t *testing.T) {
	for _, c := range forestCases(t) {
		var dfs, bfs Forest
		if !dfs.DFS(c.g, rootList(c.roots...)) || !bfs.BFS(c.g, rootList(c.roots...)) {
			t.Fatalf("%s: a first walk reported no change", c.name)
		}
		checkDFS(t, c, &dfs)
		checkBFS(t, c, &bfs)
		if dfs.DFS(c.g, rootList(c.roots...)) || bfs.BFS(c.g, rootList(c.roots...)) {
			t.Fatalf("%s: an immediate repeat reported a change", c.name)
		}
		checkDFS(t, c, &dfs)
		checkBFS(t, c, &bfs)
	}
}

// TestForestNonTreeRemovalChangesNothing removes every non-tree edge
// of each case in turn (TreeEdge is false) and requires a rebuild to
// report no change, for both kinds; the edge is restored before the
// next one.
func TestForestNonTreeRemovalChangesNothing(t *testing.T) {
	for _, c := range forestCases(t) {
		for _, kind := range []string{"dfs", "bfs"} {
			var f Forest
			walk := func() bool {
				if kind == "dfs" {
					return f.DFS(c.g, rootList(c.roots...))
				}
				return f.BFS(c.g, rootList(c.roots...))
			}
			walk()
			skipped := 0
			for _, e := range c.g.Edges() {
				if f.TreeEdge(e.U, e.V) {
					continue
				}
				skipped++
				if _, err := c.g.RemoveEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				if walk() {
					t.Fatalf("%s %s: removing non-tree edge %v changed the forest", c.name, kind, e)
				}
				if _, err := c.g.AddEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				walk()
			}
			if kind == "dfs" {
				checkDFS(t, c, &f)
			} else {
				checkBFS(t, c, &f)
			}
			t.Logf("%s %s: %d non-tree edges", c.name, kind, skipped)
		}
	}
}

// forestState is what a walk's changed verdict covers: parent, port,
// name and last for DFS, depth for BFS.
func forestState(f *Forest, n int, kind string) []int {
	var st []int
	for v := range NodeID(n) {
		if kind == "bfs" {
			st = append(st, f.Depth(v))
			continue
		}
		var port int
		if f.Parent(v) != None {
			port = int(f.port[v])
		}
		st = append(st, int(f.Parent(v)), port, f.Name(v), f.Last(v))
	}
	return st
}

// TestForestChangedVerdict flaps every edge of each case, tree edge or
// not, and adds each node as a last root and takes it away again;
// after each step it requires the walk to match the references and to
// report a change exactly when the state its verdict covers differs
// from the one before.
func TestForestChangedVerdict(t *testing.T) {
	for _, c := range forestCases(t) {
		for _, kind := range []string{"dfs", "bfs"} {
			var f Forest
			walk := func(what string, c forestCase) {
				t.Helper()
				before := forestState(&f, c.g.N(), kind)
				var got bool
				if kind == "dfs" {
					got = f.DFS(c.g, rootList(c.roots...))
					checkDFS(t, c, &f)
				} else {
					got = f.BFS(c.g, rootList(c.roots...))
					checkBFS(t, c, &f)
				}
				if want := !slices.Equal(before, forestState(&f, c.g.N(), kind)); got != want {
					t.Fatalf("%s %s %s: changed=%v, want %v", c.name, kind, what, got, want)
				}
			}
			if kind == "dfs" {
				f.DFS(c.g, rootList(c.roots...))
			} else {
				f.BFS(c.g, rootList(c.roots...))
			}
			for _, e := range c.g.Edges() {
				if _, err := c.g.RemoveEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				walk(fmt.Sprintf("removing %v", e), c)
				if _, err := c.g.AddEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				walk(fmt.Sprintf("restoring %v", e), c)
			}
			for v := range NodeID(c.g.N()) {
				if c.g.Alive(v) {
					more := c
					more.roots = append(slices.Clone(c.roots), v)
					walk(fmt.Sprintf("adding root %d", v), more)
					walk(fmt.Sprintf("removing root %d", v), c)
				}
			}
		}
	}
}

// TestForestAllocatesOnlyWhenGrown: repeated walks allocate nothing,
// a walk after the id space grew sizes the forest for the new node, and
// the walks after that allocate nothing again.
func TestForestAllocatesOnlyWhenGrown(t *testing.T) {
	g := Grid(8, 8)
	roots := func(buf []NodeID) []NodeID { return append(buf, 0, 63) }
	for _, kind := range []string{"dfs", "bfs"} {
		var f Forest
		walk := func() bool {
			if kind == "dfs" {
				return f.DFS(g, roots)
			}
			return f.BFS(g, roots)
		}
		walk()
		if a := testing.AllocsPerRun(20, func() { walk() }); a != 0 {
			t.Errorf("%s: %v allocations per walk, want 0", kind, a)
		}
		id, _ := g.AddNode()
		if _, err := g.AddEdge(id, 9); err != nil {
			t.Fatal(err)
		}
		if !walk() || !f.Reached(id) {
			t.Fatalf("%s: the walk after growth missed new node %d", kind, id)
		}
		if a := testing.AllocsPerRun(20, func() { walk() }); a != 0 {
			t.Errorf("%s: %v allocations per walk after growth, want 0", kind, a)
		}
		if _, err := g.RemoveNode(id); err != nil {
			t.Fatal(err)
		}
	}
}
