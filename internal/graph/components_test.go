package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// scratchComponents recomputes the component partition of the live
// subgraph from scratch: labels[v] = -1 for dead nodes, otherwise an
// arbitrary-but-consistent component id; returns labels and count.
func scratchComponents(g *Graph) ([]int, int) {
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = -1
	}
	count := 0
	for v := 0; v < g.N(); v++ {
		if !g.Alive(NodeID(v)) || labels[v] >= 0 {
			continue
		}
		q := []NodeID{NodeID(v)}
		labels[v] = count
		for len(q) > 0 {
			x := q[len(q)-1]
			q = q[:len(q)-1]
			for _, w := range g.Neighbors(x) {
				if w != None && labels[w] < 0 {
					labels[w] = count
					q = append(q, w)
				}
			}
		}
		count++
	}
	return labels, count
}

// checkComponents is the incremental-vs-scratch differential: the
// maintained labelling must induce exactly the scratch partition, the
// component count must match, and every label's size must equal its
// class size.
func checkComponents(t *testing.T, g *Graph) {
	t.Helper()
	want, count := scratchComponents(g)
	if g.Components() != count {
		t.Fatalf("Components() = %d, scratch says %d", g.Components(), count)
	}
	// The maintained labels must induce the same partition: build the
	// scratch-label → maintained-label correspondence and check it is a
	// bijection.
	fwd := make(map[int]int)
	sizes := make(map[int]int)
	for v := 0; v < g.N(); v++ {
		got := g.ComponentOf(NodeID(v))
		if want[v] < 0 {
			if got != -1 {
				t.Fatalf("dead node %d has component %d", v, got)
			}
			continue
		}
		if got < 0 {
			t.Fatalf("live node %d has no component", v)
		}
		if prev, ok := fwd[want[v]]; ok {
			if prev != got {
				t.Fatalf("scratch class %d maps to labels %d and %d", want[v], prev, got)
			}
		} else {
			fwd[want[v]] = got
		}
		sizes[got]++
	}
	rev := make(map[int]bool)
	for _, l := range fwd {
		if rev[l] {
			t.Fatalf("two scratch classes share maintained label %d", l)
		}
		rev[l] = true
	}
	for l, n := range sizes {
		if g.ComponentSize(l) != n {
			t.Fatalf("ComponentSize(%d) = %d, counted %d", l, g.ComponentSize(l), n)
		}
	}
}

// TestComponentsOnBuiltGraphs checks the lazy initial labelling.
func TestComponentsOnBuiltGraphs(t *testing.T) {
	g := Grid(3, 3)
	if g.Components() != 1 {
		t.Fatalf("grid has %d components", g.Components())
	}
	checkComponents(t, g)

	// Two disjoint triangles.
	b := NewBuilder(6)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 0)
	b.MustAddEdge(3, 4)
	b.MustAddEdge(4, 5)
	b.MustAddEdge(5, 3)
	g2 := b.Build()
	if g2.Components() != 2 {
		t.Fatalf("disjoint triangles: %d components", g2.Components())
	}
	if g2.SameComponent(0, 3) || !g2.SameComponent(0, 2) {
		t.Fatal("SameComponent wrong on disjoint triangles")
	}
	if g2.ComponentSize(g2.ComponentOf(0)) != 3 {
		t.Fatalf("triangle size %d", g2.ComponentSize(g2.ComponentOf(0)))
	}
	checkComponents(t, g2)
}

// TestComponentsConcurrentFirstReaders: a freshly built graph is safe
// for concurrent readers, including the query that builds the lazy
// labelling (run under -race).
func TestComponentsConcurrentFirstReaders(t *testing.T) {
	g := Grid(8, 8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(v NodeID) {
			defer wg.Done()
			if g.ComponentOf(v) != g.ComponentOf(0) || g.Components() != 1 {
				t.Error("grid labelled as more than one component")
			}
		}(NodeID(i))
	}
	wg.Wait()
}

// TestComponentSplitAndMerge pins the delta reporting: cutting the
// bridge of a barbell splits (CompChanged), healing merges
// (CompChanged), and a cycle-edge removal does neither.
func TestComponentSplitAndMerge(t *testing.T) {
	// Two triangles joined by a bridge 2-3.
	b := NewBuilder(6)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(2, 0)
	b.MustAddEdge(3, 4)
	b.MustAddEdge(4, 5)
	b.MustAddEdge(5, 3)
	b.MustAddEdge(2, 3)
	g := b.Build()
	if g.Components() != 1 {
		t.Fatalf("barbell: %d components", g.Components())
	}
	ver := g.CompVersion()

	// Cycle-edge removal: no split, no relabel.
	d, err := g.RemoveEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.CompChanged || d.Components != 1 {
		t.Fatalf("cycle-edge removal reported %+v", d)
	}
	if g.CompVersion() != ver {
		t.Fatal("cycle-edge removal bumped CompVersion")
	}
	checkComponents(t, g)

	// Bridge cut: split.
	d, err = g.RemoveEdge(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !d.CompChanged || d.Components != 2 {
		t.Fatalf("bridge cut reported %+v", d)
	}
	if g.CompVersion() == ver {
		t.Fatal("bridge cut did not bump CompVersion")
	}
	if g.SameComponent(2, 3) {
		t.Fatal("still same component after bridge cut")
	}
	checkComponents(t, g)

	// Heal: merge.
	ver = g.CompVersion()
	d, err = g.AddEdge(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !d.CompChanged || d.Components != 1 {
		t.Fatalf("heal reported %+v", d)
	}
	if g.CompVersion() == ver || !g.SameComponent(0, 5) {
		t.Fatal("heal did not merge")
	}
	checkComponents(t, g)
}

// TestComponentNodeEvents pins node birth/death semantics: a crash
// that islands a region splits, an isolated revive is a fresh
// singleton, and neither a plain crash nor a revive bumps CompVersion.
func TestComponentNodeEvents(t *testing.T) {
	g := Path(5) // 0-1-2-3-4
	if g.Components() != 1 {
		t.Fatal("path disconnected?")
	}
	ver := g.CompVersion()

	// Removing the middle of the path splits {0,1} from {3,4}.
	d, err := g.RemoveNode(2)
	if err != nil {
		t.Fatal(err)
	}
	if !d.CompChanged || d.Components != 2 {
		t.Fatalf("middle crash reported %+v", d)
	}
	if g.ComponentOf(2) != -1 {
		t.Fatal("dead node kept a component")
	}
	checkComponents(t, g)

	// Reviving it gives a fresh singleton without relabelling others.
	ver = g.CompVersion()
	id, d2 := g.AddNode()
	if id != 2 || d2.Components != 3 || d2.CompChanged {
		t.Fatalf("revive gave id=%d delta %+v", id, d2)
	}
	if g.CompVersion() != ver {
		t.Fatal("revive bumped CompVersion")
	}
	if g.ComponentSize(g.ComponentOf(2)) != 1 {
		t.Fatal("revived node not a singleton component")
	}
	checkComponents(t, g)

	// Re-attaching merges both sides back.
	if d3, err := g.AddEdge(2, 1); err != nil || !d3.CompChanged || d3.Components != 2 {
		t.Fatalf("reattach 2-1: %v %+v", err, d3)
	}
	if d4, err := g.AddEdge(2, 3); err != nil || !d4.CompChanged || d4.Components != 1 {
		t.Fatalf("reattach 2-3: %v %+v", err, d4)
	}
	checkComponents(t, g)

	// A leaf crash removes a then-singleton cleanly.
	g2 := Path(2)
	if _, err := g2.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	if g2.Components() != 1 {
		t.Fatalf("after leaf crash: %d components", g2.Components())
	}
	if _, err := g2.RemoveNode(0); err != nil {
		t.Fatal(err)
	}
	if g2.Components() != 0 {
		t.Fatalf("empty live graph has %d components", g2.Components())
	}
	checkComponents(t, g2)
}

// TestComponentsUnderRandomChurn is the long differential: a random
// mutation stream over a graph that is allowed to shatter arbitrarily,
// with the incremental labelling checked against a scratch recompute
// after every mutation.
func TestComponentsUnderRandomChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g, err := GnpAny(24, 0.08, rng)
	if err != nil {
		t.Fatal(err)
	}
	type edge struct{ u, v NodeID }
	var removed []edge
	for i := 0; i < 600; i++ {
		switch rng.Intn(4) {
		case 0: // remove a random live edge — splits allowed
			es := g.Edges()
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			if _, err := g.RemoveEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
			removed = append(removed, edge{e.U, e.V})
		case 1: // re-add a removed edge or a fresh random one
			if len(removed) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(removed))
				e := removed[k]
				removed = append(removed[:k], removed[k+1:]...)
				if g.Alive(e.u) && g.Alive(e.v) && !g.HasEdge(e.u, e.v) {
					if _, err := g.AddEdge(e.u, e.v); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				u := NodeID(rng.Intn(g.N()))
				v := NodeID(rng.Intn(g.N()))
				if u != v && g.Alive(u) && g.Alive(v) && !g.HasEdge(u, v) {
					if _, err := g.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 2: // crash a random node — islands allowed
			if g.NAlive() > 1 {
				v := NodeID(rng.Intn(g.N()))
				if g.Alive(v) {
					if _, err := g.RemoveNode(v); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 3: // revive
			if g.NAlive() < g.N() {
				g.AddNode()
			}
		}
		checkComponents(t, g)
	}
}

// TestGnpAny checks the no-rejection G(n,p) draw: seed-deterministic,
// same edge stream as Gnp, and disconnected draws pass through.
func TestGnpAny(t *testing.T) {
	// A draw sparse enough that Gnp rejects must come back from GnpAny.
	g, err := GnpAny(64, 0.001, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Skip("unexpectedly connected sparse draw; seed drift")
	}
	if g.Components() < 2 {
		t.Fatalf("disconnected draw reports %d components", g.Components())
	}
	// Same seed and p as a Gnp draw ⇒ identical edge set.
	ga, err := GnpAny(64, 0.2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := Gnp(64, 0.2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := ga.Edges(), gb.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge streams diverge: %d vs %d edges", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	// Named arm round-trips and rejects garbage.
	if _, err := Named("gnp-any:40:0.05:7"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"gnp-any:10:1.5:1", "gnp-any:10:nan:1", "gnp-any:-3:0.5:1"} {
		if _, err := Named(bad); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}
