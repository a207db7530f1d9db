package failover_test

import (
	"fmt"
	"math/rand"
	"testing"

	"netorient/internal/churn"
	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/token"
)

// fixedAuthority is the degenerate root authority: its only root is
// the live fixed root, and its version is the root's liveness epoch.
type fixedAuthority struct {
	g    *graph.Graph
	root graph.NodeID
}

func (a fixedAuthority) IsRoot(v graph.NodeID) bool { return a.g.Alive(v) && v == a.root }
func (a fixedAuthority) RootsVersion() uint64       { return a.g.RootEpoch(a.root) }

// equivalencePair is one stack run twice in lockstep: bare, and bound to
// fixedAuthority, each on its own copy of the graph.
type equivalencePair struct {
	g    [2]*graph.Graph
	p    [2]program.Protocol
	sys  [2]*program.System
	root graph.NodeID
}

// apply performs the same graph mutation on both copies and hands each
// delta to its engine.
func (e *equivalencePair) apply(t *testing.T, f func(g *graph.Graph) (graph.Delta, error)) {
	t.Helper()
	for i := range e.g {
		d, err := f(e.g[i])
		if err != nil {
			t.Fatal(err)
		}
		e.sys[i].ApplyDelta(d)
	}
}

// verdicts returns Legitimate() and the verdict of a freshly reset
// witness.
func verdicts(p program.Protocol) (legit, wit bool) {
	w := p.(program.Witness)
	w.WitnessReset()
	return p.(program.Legitimacy).Legitimate(), w.WitnessLegitimate()
}

// TestFixedRootMatchesBoundAuthority: a stack with no root authority
// and the same stack bound to the authority whose only root is the live
// fixed root are one protocol. Stepped in lockstep on equal seeds
// through random starts, corruptions, splitting cuts and crashes and
// revivals of the root, the pair makes the same moves, and after every
// step their Legitimate() verdicts and freshly reset witness verdicts
// agree with each other and with themselves.
func TestFixedRootMatchesBoundAuthority(t *testing.T) {
	t.Parallel()
	specs := []string{"path:3", "path:4", "grid:3x3", "lollipop:4:3", "ring:6", "star:4"}
	seeds, steps := int64(6), 300
	if testing.Short() {
		seeds, steps = 3, 200
	}
	for name, build := range inners() {
		for _, spec := range specs {
			for seed := int64(1); seed <= seeds; seed++ {
				name, build, spec, seed := name, build, spec, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, spec, seed), func(t *testing.T) {
					t.Parallel()
					e := &equivalencePair{root: 0}
					for i := range e.g {
						g, err := graph.Named(spec)
						if err != nil {
							t.Fatal(err)
						}
						in, err := build(g)
						if err != nil {
							t.Fatal(err)
						}
						if i == 1 {
							in.BindRootAuthority(fixedAuthority{g: g, root: e.root})
						}
						in.(program.Randomizer).Randomize(rand.New(rand.NewSource(seed)))
						e.g[i], e.p[i] = g, in
						e.sys[i] = program.NewSystem(in, daemon.NewCentral(seed))
					}
					lockstep(t, e, rand.New(rand.NewSource(seed)), steps)
				})
			}
		}
	}
}

func lockstep(t *testing.T, e *equivalencePair, rng *rand.Rand, steps int) {
	t.Helper()
	var cut []graph.Edge
	var rootEdges []graph.NodeID
	for step := 0; step < steps; step++ {
		if step%10 == 9 {
			g := e.g[0]
			switch rng.Intn(4) {
			case 0: // corrupt a node
				v := graph.NodeID(rng.Intn(g.N()))
				s := rng.Int63()
				for i := range e.p {
					e.p[i].(program.NodeCorruptor).CorruptNode(v, rand.New(rand.NewSource(s)))
					e.sys[i].Invalidate()
				}
			case 1: // split a region off
				if region, ok := churn.PickPartitionCut(g, e.root, 1+rng.Intn(3), rng); ok {
					for _, c := range region {
						e.apply(t, func(g *graph.Graph) (graph.Delta, error) { return g.RemoveEdge(c.U, c.V) })
					}
					cut = append(cut, region...)
				}
			case 2: // crash or revive the root
				if g.Alive(e.root) {
					rootEdges = rootEdges[:0]
					for _, q := range g.Neighbors(e.root) {
						if q != graph.None {
							rootEdges = append(rootEdges, q)
						}
					}
					e.apply(t, func(g *graph.Graph) (graph.Delta, error) { return g.RemoveNode(e.root) })
					break
				}
				e.apply(t, func(g *graph.Graph) (graph.Delta, error) {
					id, d := g.AddNode()
					if id != e.root {
						return d, fmt.Errorf("revive picked slot %d, want the root", id)
					}
					return d, nil
				})
				for _, q := range rootEdges {
					if g.Alive(q) {
						e.apply(t, func(g *graph.Graph) (graph.Delta, error) { return g.AddEdge(e.root, q) })
					}
				}
			case 3: // heal one cut edge
				if len(cut) == 0 {
					break
				}
				c := cut[len(cut)-1]
				cut = cut[:len(cut)-1]
				if g.Alive(c.U) && g.Alive(c.V) && !g.HasEdge(c.U, c.V) {
					e.apply(t, func(g *graph.Graph) (graph.Delta, error) { return g.AddEdge(c.U, c.V) })
				}
			}
		}
		for i := range e.sys {
			if _, err := e.sys[i].Step(); err != nil {
				t.Fatal(err)
			}
		}
		if e.sys[0].Moves() != e.sys[1].Moves() {
			t.Fatalf("step %d: %d moves bare, %d bound", step, e.sys[0].Moves(), e.sys[1].Moves())
		}
		bl, bw := verdicts(e.p[0])
		al, aw := verdicts(e.p[1])
		if bl != al || bw != aw || bl != bw {
			t.Fatalf("step %d: bare Legitimate %v witness %v; bound Legitimate %v witness %v", step, bl, bw, al, aw)
		}
	}
}

// TestCirculatorRootSetAllocations gates the circulator's root-derived
// scratch: on a split grid:8x8, a witness reset reuses its bucket table
// and allocates nothing, bare or under a bound authority, and so does
// Legitimate() in either mode.
func TestCirculatorRootSetAllocations(t *testing.T) {
	var c [2]*token.Circulator
	for i := range c {
		g := graph.Grid(8, 8)
		for _, e := range [][2]graph.NodeID{{3, 4}, {11, 12}, {19, 20}, {27, 28}, {35, 36}, {43, 44}, {51, 52}, {59, 60}} {
			if _, err := g.RemoveEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		if g.Components() != 2 {
			t.Fatalf("%d components, want 2", g.Components())
		}
		var err error
		if c[i], err = token.NewCirculator(g, 0); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			c[i].BindRootAuthority(fixedAuthority{g: g, root: 0})
		}
		c[i].Randomize(rand.New(rand.NewSource(3)))
	}
	for i, mode := range []string{"bare", "bound"} {
		if a := testing.AllocsPerRun(20, c[i].WitnessReset); a != 0 {
			t.Errorf("WitnessReset (%s): %v allocations, want 0", mode, a)
		}
		if a := testing.AllocsPerRun(20, func() { c[i].Legitimate() }); a != 0 {
			t.Errorf("Legitimate (%s): %v allocations, want 0", mode, a)
		}
	}
}
