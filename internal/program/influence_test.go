package program

import (
	"slices"
	"testing"

	"netorient/internal/graph"
)

// ballReference is the quadratic-membership implementation the scratch
// rewrite replaced, kept as the behavioural reference: InfluenceBall
// must return the identical slice (same nodes, same BFS order).
func ballReference(g *graph.Graph, v graph.NodeID, radius int, buf []graph.NodeID) []graph.NodeID {
	start := len(buf)
	buf = append(buf, v)
	frontier := buf[start:]
	for hop := 0; hop < radius; hop++ {
		next := len(buf)
		for _, u := range frontier {
			for _, q := range g.Neighbors(u) {
				seen := false
				for _, w := range buf[start:] {
					if w == q {
						seen = true
						break
					}
				}
				if !seen {
					buf = append(buf, q)
				}
			}
		}
		frontier = buf[next:]
		if len(frontier) == 0 {
			break
		}
	}
	return buf
}

func referenceGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"grid8x8":  graph.Grid(8, 8),
		"ring9":    graph.Ring(9),
		"clique6":  graph.Complete(6),
		"lollipop": graph.Lollipop(4, 4),
	}
}

func TestInfluenceBallMatchesReference(t *testing.T) {
	t.Parallel()
	var seen graph.Marks
	for name, g := range referenceGraphs() {
		for radius := 0; radius <= 4; radius++ {
			for v := 0; v < g.N(); v++ {
				got := InfluenceBall(g, graph.NodeID(v), radius, &seen, nil)
				want := ballReference(g, graph.NodeID(v), radius, nil)
				if len(got) != len(want) {
					t.Fatalf("%s r=%d v=%d: %d nodes, want %d", name, radius, v, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s r=%d v=%d: order diverges at %d: %v vs %v", name, radius, v, i, got, want)
					}
					if !seen.Has(got[i]) {
						t.Fatalf("%s r=%d v=%d: ball node %d left unmarked", name, radius, v, got[i])
					}
				}
			}
		}
	}
}

// TestInfluenceWalkMatchesBall: the scratch-free walk covers exactly
// InfluenceBall's nodes, first met in the ball's BFS order, also on a
// mutated graph with holes and a dead node.
func TestInfluenceWalkMatchesBall(t *testing.T) {
	t.Parallel()
	graphs := referenceGraphs()
	holed := graph.Grid(5, 5)
	for _, e := range [][2]graph.NodeID{{0, 1}, {7, 12}, {18, 19}} {
		if _, err := holed.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := holed.RemoveNode(11); err != nil {
		t.Fatal(err)
	}
	graphs["holed5x5"] = holed
	var seen graph.Marks
	for name, g := range graphs {
		for radius := 0; radius <= 2; radius++ {
			for v := 0; v < g.N(); v++ {
				walk := InfluenceWalk(g, graph.NodeID(v), radius, nil)
				ball := InfluenceBall(g, graph.NodeID(v), radius, &seen, nil)
				var firsts []graph.NodeID
				for _, u := range walk {
					if !slices.Contains(firsts, u) {
						firsts = append(firsts, u)
					}
				}
				if !slices.Equal(firsts, ball) {
					t.Fatalf("%s r=%d v=%d: walk %v covers %v, ball %v", name, radius, v, walk, firsts, ball)
				}
			}
		}
	}
}

func TestInfluenceBallAppendsAfterPrefix(t *testing.T) {
	t.Parallel()
	g := graph.Grid(4, 4)
	prefix := []graph.NodeID{99, 98}
	out := InfluenceBall(g, 5, 2, new(graph.Marks), append([]graph.NodeID(nil), prefix...))
	if out[0] != 99 || out[1] != 98 {
		t.Fatalf("prefix clobbered: %v", out[:2])
	}
	if out[2] != 5 {
		t.Fatalf("ball must start at the centre, got %v", out[2:])
	}
}

// TestInfluenceBallAllocatesNothing: with caller-owned marks and a
// reused buffer, a warm radius-2 ball allocates nothing.
func TestInfluenceBallAllocatesNothing(t *testing.T) {
	g := graph.Grid(32, 32)
	var seen graph.Marks
	buf := InfluenceBall(g, 0, 2, &seen, nil)
	v := graph.NodeID(0)
	if a := testing.AllocsPerRun(100, func() {
		v = (v + 37) % graph.NodeID(g.N())
		buf = InfluenceBall(g, v, 2, &seen, buf[:0])
	}); a != 0 {
		t.Fatalf("InfluenceBall allocates %v per call, want 0", a)
	}
}

// BenchmarkInfluenceBall measures the radius-2 ball on a 64×64 grid —
// the radius the failover wrapper and STNO over a DFS tree declare,
// which the parallel engine's isInterior tests per node. The membership
// scratch makes it linear in the ball; the replaced implementation
// re-scanned the output slice per enqueue (quadratic in the ball, and
// the ball at radius 2 on a grid is 13 nodes, so the constant matters
// at scale).
func BenchmarkInfluenceBall(b *testing.B) {
	g := graph.Grid(64, 64)
	var seen graph.Marks
	var buf []graph.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = InfluenceBall(g, graph.NodeID(i%g.N()), 2, &seen, buf[:0])
	}
}

// BenchmarkInfluenceBallReference is the pre-rewrite comparison point.
func BenchmarkInfluenceBallReference(b *testing.B) {
	g := graph.Grid(64, 64)
	var buf []graph.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ballReference(g, graph.NodeID(i%g.N()), 2, buf[:0])
	}
}

// BenchmarkInfluenceBallWide stresses the linearity claim where it
// actually bites: radius 4 on the grid (41-node balls).
func BenchmarkInfluenceBallWide(b *testing.B) {
	g := graph.Grid(64, 64)
	var seen graph.Marks
	var buf []graph.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = InfluenceBall(g, graph.NodeID(i%g.N()), 4, &seen, buf[:0])
	}
}
