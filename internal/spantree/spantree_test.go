package spantree

import (
	"math/rand"
	"slices"
	"testing"

	"netorient/internal/check"
	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
)

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path5":    graph.Path(5),
		"ring6":    graph.Ring(6),
		"star6":    graph.Star(6),
		"clique5":  graph.Complete(5),
		"grid3x3":  graph.Grid(3, 3),
		"tree7":    graph.KAryTree(7, 2),
		"lollipop": graph.Lollipop(4, 3),
		"wheel7":   graph.Wheel(7),
	}
}

func TestBFSTreeConvergesToBFSDistances(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			tr, err := NewBFSTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			sys := program.NewSystem(tr, daemon.NewRoundRobin())
			res, err := sys.RunUntilLegitimate(int64(1000 * g.N() * g.N()))
			if err != nil || !res.Converged {
				t.Fatalf("no convergence: %v %+v", err, res)
			}
			wantDist, _ := graph.BFSFrom(g, 0)
			for v := 0; v < g.N(); v++ {
				if tr.Dist(graph.NodeID(v)) != wantDist[v] {
					t.Errorf("dist[%d] = %d, want %d", v, tr.Dist(graph.NodeID(v)), wantDist[v])
				}
			}
			if !graph.SpanningParent(g, ParentVector(g, tr), 0) {
				t.Error("parent pointers do not form a spanning tree")
			}
			if !sys.Silent() {
				t.Error("BFS tree not silent after stabilization")
			}
		})
	}
}

func TestBFSTreeConvergesFromRandomStates(t *testing.T) {
	daemons := map[string]func(int64) program.Daemon{
		"central":     func(s int64) program.Daemon { return daemon.NewCentral(s) },
		"distributed": func(s int64) program.Daemon { return daemon.NewDistributed(s, 0.5) },
		"synchronous": func(s int64) program.Daemon { return daemon.NewSynchronous(s) },
	}
	for name, g := range testGraphs() {
		for dn, mk := range daemons {
			t.Run(name+"/"+dn, func(t *testing.T) {
				tr, err := NewBFSTree(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(8))
				for trial := 0; trial < 15; trial++ {
					tr.Randomize(rng)
					sys := program.NewSystem(tr, mk(int64(trial)))
					res, err := sys.RunUntilLegitimate(int64(2000 * g.N()))
					if err != nil || !res.Converged {
						t.Fatalf("trial %d: %v %+v", trial, err, res)
					}
				}
			})
		}
	}
}

// TestBFSTreeModelCheck machine-verifies self-stabilization of the
// BFS tree on small graphs.
func TestBFSTreeModelCheck(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path3":    graph.Path(3),
		"triangle": graph.Complete(3),
		"path4":    graph.Path(4),
		"ring4":    graph.Ring(4),
		"star4":    graph.Star(4),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			tr, err := NewBFSTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			seeds, err := check.RandomSeeds(tr, 200, rng)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := check.Verify(tr, check.Options{Seeds: seeds, MaxStates: 2_000_000})
			if err != nil {
				t.Fatalf("self-stabilization violated: %v", err)
			}
			t.Logf("%s: %d states (%d legitimate), worst distance %d",
				name, rep.States, rep.LegitStates, rep.MaxStepsToLegit)
		})
	}
}

func TestBFSTreeStabilizesInDiameterRounds(t *testing.T) {
	// The classic bound: O(D) rounds under the synchronous daemon.
	g := graph.Path(20)
	tr, err := NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	tr.Randomize(rng)
	sys := program.NewSystem(tr, daemon.NewSynchronous(2))
	res, err := sys.RunUntilLegitimate(1 << 20)
	if err != nil || !res.Converged {
		t.Fatalf("no convergence: %v %+v", err, res)
	}
	if res.Rounds > int64(3*g.N()) {
		t.Errorf("took %d rounds, want O(n)=%d", res.Rounds, 3*g.N())
	}
}

func TestDFSTreeConvergesToDFSTree(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			tr, err := NewDFSTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			sys := program.NewSystem(tr, daemon.NewRoundRobin())
			res, err := sys.RunUntilLegitimate(int64(2000 * g.N() * g.N()))
			if err != nil || !res.Converged {
				t.Fatalf("no convergence: %v %+v", err, res)
			}
			_, wantParent := graph.DFSPreorder(g, 0)
			for v := 1; v < g.N(); v++ {
				if got := tr.Parent(graph.NodeID(v)); got != wantParent[v] {
					t.Errorf("parent[%d] = %d, want DFS parent %d", v, got, wantParent[v])
				}
			}
			if !sys.Silent() {
				t.Error("DFS tree not silent after stabilization")
			}
		})
	}
}

func TestDFSTreeConvergesFromRandomStates(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			tr, err := NewDFSTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(16))
			for trial := 0; trial < 10; trial++ {
				tr.Randomize(rng)
				sys := program.NewSystem(tr, daemon.NewCentral(int64(trial)))
				res, err := sys.RunUntilLegitimate(int64(4000 * g.N()))
				if err != nil || !res.Converged {
					t.Fatalf("trial %d: %v %+v", trial, err, res)
				}
			}
		})
	}
}

// TestDFSTreeModelCheck machine-verifies self-stabilization of the
// DFS tree on small graphs.
func TestDFSTreeModelCheck(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path3":    graph.Path(3),
		"triangle": graph.Complete(3),
		"star4":    graph.Star(4),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			tr, err := NewDFSTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			seeds, err := check.RandomSeeds(tr, 150, rng)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := check.Verify(tr, check.Options{Seeds: seeds, MaxStates: 2_000_000})
			if err != nil {
				t.Fatalf("self-stabilization violated: %v", err)
			}
			t.Logf("%s: %d states (%d legitimate), worst distance %d",
				name, rep.States, rep.LegitStates, rep.MaxStepsToLegit)
		})
	}
}

func TestDFSTreeLexLess(t *testing.T) {
	// extLess(a, x, b, y) orders the extensions a++[x] and b++[y]
	// element-wise, a proper prefix first: slices.Compare's order.
	cases := []struct {
		a    []int
		x    int
		b    []int
		y    int
		want bool
	}{
		{nil, 0, nil, 1, true},
		{nil, 1, nil, 0, false},
		{[]int{0}, 5, nil, 1, true},
		{nil, 0, []int{0}, 1, true},  // prefix smaller
		{[]int{0}, 1, nil, 0, false}, // extension larger
		{[]int{}, 0, []int{0}, 0, true},
		{[]int{2}, 3, []int{2}, 3, false},
		{[]int{1, 2}, 9, []int{1, 3}, 0, true},
	}
	for i, c := range cases {
		if got := extLess(c.a, c.x, c.b, c.y); got != c.want {
			t.Errorf("case %d: extLess(%v,%d,%v,%d) = %v, want %v", i, c.a, c.x, c.b, c.y, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	draw := func() []int {
		p := make([]int, rng.Intn(4))
		for i := range p {
			p[i] = rng.Intn(3)
		}
		return p
	}
	for i := 0; i < 5000; i++ {
		a, x, b, y := draw(), rng.Intn(3), draw(), rng.Intn(3)
		want := slices.Compare(append(slices.Clone(a), x), append(slices.Clone(b), y)) < 0
		if got := extLess(a, x, b, y); got != want {
			t.Fatalf("extLess(%v,%d,%v,%d) = %v, want %v", a, x, b, y, got, want)
		}
	}
}

func TestOracleSubstrate(t *testing.T) {
	g := graph.Grid(3, 3)
	o, err := NewDFSOracle(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Legitimate() {
		t.Fatal("oracle must be legitimate")
	}
	_, wantParent := graph.DFSPreorder(g, 0)
	for v := 0; v < g.N(); v++ {
		if o.Parent(graph.NodeID(v)) != wantParent[v] {
			t.Errorf("oracle parent[%d] = %d, want %d", v, o.Parent(graph.NodeID(v)), wantParent[v])
		}
	}
	var buf []program.ActionID
	for v := 0; v < g.N(); v++ {
		if len(o.Enabled(graph.NodeID(v), buf[:0])) != 0 {
			t.Error("oracle has enabled actions")
		}
	}
	// Invalid parent vectors are rejected.
	bad := make([]graph.NodeID, g.N())
	for i := range bad {
		bad[i] = graph.None
	}
	if _, err := NewOracle(g, 0, bad); err == nil {
		t.Error("expected error for non-spanning parent vector")
	}
}

func TestChildrenAreInPortOrder(t *testing.T) {
	g := graph.Star(6)
	o, err := NewBFSOracle(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	kids := Children(g, o, 0, nil)
	if len(kids) != 5 {
		t.Fatalf("root of star has %d children, want 5", len(kids))
	}
	for i, q := range kids {
		if q != g.Neighbor(0, i) {
			t.Errorf("child %d = %d, want port order %d", i, q, g.Neighbor(0, i))
		}
	}
}

// TestDFSTreeEnabledAllocatesNothing gates DFSTree's guards: a full
// Enabled scan of a randomized grid:16x16 compares every candidate
// extension in place and allocates nothing; only Execute builds a path.
func TestDFSTreeEnabledAllocatesNothing(t *testing.T) {
	g := graph.Grid(16, 16)
	tr, err := NewDFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Randomize(rand.New(rand.NewSource(1)))
	buf := make([]program.ActionID, 0, 1)
	enabled := 0
	scan := func() {
		enabled = 0
		for v := range graph.NodeID(g.N()) {
			enabled += len(tr.Enabled(v, buf[:0]))
		}
	}
	if a := testing.AllocsPerRun(20, scan); a != 0 {
		t.Errorf("a full Enabled scan allocates %v, want 0", a)
	}
	if enabled == 0 {
		t.Fatal("no guard is enabled on a randomized configuration")
	}
}
