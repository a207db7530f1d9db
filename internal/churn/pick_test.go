package churn_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"netorient/internal/churn"
	"netorient/internal/graph"
)

// reachable BFS-counts the live nodes reachable from start, skipping
// the edge {a,b} and the node x (None skips nothing).
func reachable(g *graph.Graph, start, a, b, x graph.NodeID) int {
	seen := map[graph.NodeID]bool{start: true}
	queue := []graph.NodeID{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, q := range g.Neighbors(u) {
			if q == graph.None || q == x || seen[q] || (u == a && q == b) || (u == b && q == a) {
				continue
			}
			seen[q] = true
			queue = append(queue, q)
		}
	}
	return len(seen)
}

// Slice-and-map forms of the pickers, drawing from rng exactly as the
// pickers are specified to: they index g.Edges() and grow the region
// in a map.
func refAnyEdge(g *graph.Graph, rng *rand.Rand) (graph.Edge, bool) {
	edges := g.Edges()
	if len(edges) == 0 {
		return graph.Edge{U: graph.None, V: graph.None}, false
	}
	return edges[rng.Intn(len(edges))], true
}

func refFlapEdge(g *graph.Graph, rng *rand.Rand) (graph.Edge, bool) {
	edges := g.Edges()
	for attempts := 0; len(edges) > 0 && attempts < 4*len(edges)+16; attempts++ {
		e := edges[rng.Intn(len(edges))]
		if reachable(g, e.U, e.U, e.V, graph.None) == g.NAlive() {
			return e, true
		}
	}
	return graph.Edge{U: graph.None, V: graph.None}, false
}

func refCrashNode(g *graph.Graph, root graph.NodeID, rng *rand.Rand) (graph.NodeID, bool) {
	for attempts := 0; attempts < 4*g.N()+16; attempts++ {
		v := graph.NodeID(rng.Intn(g.N()))
		if v != root && g.Alive(v) && reachable(g, root, graph.None, graph.None, v) == g.NAlive()-1 {
			return v, true
		}
	}
	return graph.None, false
}

func refPartitionCut(g *graph.Graph, root graph.NodeID, size int, rng *rand.Rand) ([]graph.Edge, bool) {
	seed := graph.None
	for attempts := 0; attempts < 4*g.N()+16; attempts++ {
		if v := graph.NodeID(rng.Intn(g.N())); v != root && g.Alive(v) {
			seed = v
			break
		}
	}
	if seed == graph.None {
		return nil, false
	}
	in := map[graph.NodeID]bool{seed: true}
	frontier := []graph.NodeID{seed}
	for len(frontier) > 0 && len(in) < size {
		v := frontier[0]
		frontier = frontier[1:]
		for _, q := range g.Neighbors(v) {
			if q == graph.None || q == root || in[q] {
				continue
			}
			if len(in) >= size {
				break
			}
			in[q] = true
			frontier = append(frontier, q)
		}
	}
	var cut []graph.Edge
	for v := range in {
		for _, q := range g.Neighbors(v) {
			if q != graph.None && !in[q] {
				cut = append(cut, graph.Edge{U: min(v, q), V: max(v, q)})
			}
		}
	}
	sort.Slice(cut, func(i, j int) bool {
		return cut[i].U < cut[j].U || (cut[i].U == cut[j].U && cut[i].V < cut[j].V)
	})
	return cut, len(cut) > 0
}

// refBridgeEdge and refCutVertex are the per-candidate sweep forms of
// PickBridgeEdge and PickCutVertex: each candidate in the permutation
// is tested with its own search against the size of its component.
func refBridgeEdge(g *graph.Graph, rng *rand.Rand) (graph.Edge, bool) {
	edges := g.Edges()
	if len(edges) == 0 {
		return graph.Edge{U: graph.None, V: graph.None}, false
	}
	for _, i := range rng.Perm(len(edges)) {
		e := edges[i]
		if reachable(g, e.U, e.U, e.V, graph.None) < reachable(g, e.U, graph.None, graph.None, graph.None) {
			return e, true
		}
	}
	return graph.Edge{U: graph.None, V: graph.None}, false
}

func refCutVertex(g *graph.Graph, root graph.NodeID, rng *rand.Rand) (graph.NodeID, bool) {
	for _, i := range rng.Perm(g.N()) {
		v := graph.NodeID(i)
		if v == root || !g.Alive(v) || g.Degree(v) < 2 {
			continue
		}
		start := graph.None
		for _, q := range g.Neighbors(v) {
			if q != graph.None {
				start = q
				break
			}
		}
		if reachable(g, start, graph.None, graph.None, v) < reachable(g, v, graph.None, graph.None, graph.None)-1 {
			return v, true
		}
	}
	return graph.None, false
}

// holedGrid returns grid:6x6 with a few edges removed, two nodes
// crashed and every port order shuffled, so adjacency lists have holes,
// node ids have gaps and ports do not follow neighbour ids.
func holedGrid(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.Grid(6, 6)
	for _, e := range [][2]graph.NodeID{{0, 1}, {7, 13}, {20, 21}, {28, 29}} {
		if _, err := g.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []graph.NodeID{14, 33} {
		if _, err := g.RemoveNode(v); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	perm := make([][]int, g.N())
	for v := range perm {
		perm[v] = rng.Perm(g.Ports(graph.NodeID(v)))
	}
	shuffled, err := g.Reorder(perm)
	if err != nil {
		t.Fatal(err)
	}
	if !shuffled.Connected() {
		t.Fatal("holed grid is disconnected")
	}
	return shuffled
}

// TestPickersMatchSliceReference pins that the allocation-free and
// lowlink pickers make the same choices from the same draws as the
// slice-and-map and per-candidate sweep forms they replaced, so seeded
// schedules do not move: each pick must agree and leave the two
// generators in step.
func TestPickersMatchSliceReference(t *testing.T) {
	t.Parallel()
	g := holedGrid(t)
	for seed := int64(1); seed <= 40; seed++ {
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		inStep := func(what string) {
			t.Helper()
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("seed %d %s: generators out of step", seed, what)
			}
		}
		u, v, ok := churn.PickAnyEdge(g, a)
		if e, okRef := refAnyEdge(g, b); ok != okRef || u != e.U || v != e.V {
			t.Fatalf("seed %d PickAnyEdge: {%d,%d} %v, want %v %v", seed, u, v, ok, e, okRef)
		}
		inStep("PickAnyEdge")
		u, v, ok = churn.PickFlapEdge(g, a)
		if e, okRef := refFlapEdge(g, b); ok != okRef || u != e.U || v != e.V {
			t.Fatalf("seed %d PickFlapEdge: {%d,%d} %v, want %v %v", seed, u, v, ok, e, okRef)
		}
		inStep("PickFlapEdge")
		x, ok := churn.PickCrashNode(g, 0, a)
		if y, okRef := refCrashNode(g, 0, b); ok != okRef || x != y {
			t.Fatalf("seed %d PickCrashNode: %d %v, want %d %v", seed, x, ok, y, okRef)
		}
		inStep("PickCrashNode")
		size := 1 + int(seed%7)
		cut, ok := churn.PickPartitionCut(g, 0, size, a)
		if want, okRef := refPartitionCut(g, 0, size, b); ok != okRef || !slices.Equal(cut, want) {
			t.Fatalf("seed %d PickPartitionCut(%d): %v %v, want %v %v", seed, size, cut, ok, want, okRef)
		}
		inStep("PickPartitionCut")
	}
	// PickBridgeEdge and PickCutVertex against their per-candidate sweep
	// forms, on graphs with bridges and cut vertices (the holed grid,
	// the lollipop), a disconnected graph, whose verdicts are per
	// component, and a grid with neither, where every pick fails.
	split := holedGrid(t)
	for c := graph.NodeID(0); c < 6; c++ {
		if split.HasEdge(12+c, 18+c) {
			if _, err := split.RemoveEdge(12+c, 18+c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if split.Connected() {
		t.Fatal("split grid is connected")
	}
	lollipop, err := graph.Named("lollipop:8:6")
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"holed": holedGrid(t), "split": split, "lollipop": lollipop, "grid": graph.Grid(6, 6),
	}
	for name, g := range graphs {
		found := 0
		for seed := int64(1); seed <= 20; seed++ {
			a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			u, v, ok := churn.PickBridgeEdge(g, a)
			if e, okRef := refBridgeEdge(g, b); ok != okRef || u != e.U || v != e.V {
				t.Fatalf("%s seed %d PickBridgeEdge: {%d,%d} %v, want %v %v", name, seed, u, v, ok, e, okRef)
			}
			x, ok := churn.PickCutVertex(g, 0, a)
			if y, okRef := refCutVertex(g, 0, b); ok != okRef || x != y {
				t.Fatalf("%s seed %d PickCutVertex: %d %v, want %d %v", name, seed, x, ok, y, okRef)
			}
			if ok {
				found++
			}
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("%s seed %d: generators out of step", name, seed)
			}
		}
		if (found > 0) != (name != "grid") {
			t.Fatalf("%s: %d of 20 cut-vertex picks succeeded", name, found)
		}
	}
}

// TestPickersAllocateNothing pins the pickers' reusable scratch: after
// warm-up, edge and crash picks allocate nothing and a partition pick
// allocates only the cut it returns.
func TestPickersAllocateNothing(t *testing.T) {
	g := holedGrid(t)
	rng := rand.New(rand.NewSource(1))
	for name, pick := range map[string]func(){
		"PickAnyEdge":   func() { churn.PickAnyEdge(g, rng) },
		"PickFlapEdge":  func() { churn.PickFlapEdge(g, rng) },
		"PickCrashNode": func() { churn.PickCrashNode(g, 0, rng) },
	} {
		if a := testing.AllocsPerRun(50, pick); a != 0 {
			t.Errorf("%s allocates %v times per pick, want 0", name, a)
		}
	}
	if a := testing.AllocsPerRun(50, func() { churn.PickPartitionCut(g, 0, 5, rng) }); a != 1 {
		t.Errorf("PickPartitionCut allocates %v times per pick, want 1 (the cut)", a)
	}
}

// TestPickersConcurrent: the pickers share one package-level scratch
// behind a mutex, so picks running at once on graphs of different sizes
// must each return what the same picks return alone.
func TestPickersConcurrent(t *testing.T) {
	picks := func(g *graph.Graph, seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		var out []any
		for i := 0; i < 10; i++ {
			u, v, ok := churn.PickFlapEdge(g, rng)
			x, okX := churn.PickCrashNode(g, 0, rng)
			cut, okC := churn.PickPartitionCut(g, 0, 5, rng)
			b, c, okB := churn.PickBridgeEdge(g, rng)
			y, okY := churn.PickCutVertex(g, 0, rng)
			out = append(out, u, v, ok, x, okX, cut, okC, b, c, okB, y, okY)
		}
		return fmt.Sprint(out...)
	}
	graphs := []*graph.Graph{holedGrid(t), graph.Grid(9, 9), graph.Lollipop(8, 6), graph.Grid(4, 5)}
	want := make([]string, len(graphs))
	for i, g := range graphs {
		want[i] = picks(g, int64(i))
	}
	var wg sync.WaitGroup
	for i, g := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				if got := picks(g, int64(i)); got != want[i] {
					t.Errorf("graph %d: concurrent picks %s, alone %s", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
