package program_test

import (
	"math/rand"
	"slices"
	"testing"

	"netorient/internal/core"
	"netorient/internal/daemon"
	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/token"
)

// FuzzApplyDelta feeds arbitrary op streams — daemon steps interleaved
// with edge toggles and node crash/revive cycles — to a
// failover-wrapped DFTNO stack running under both schedulers,
// asserting the incremental runner stays bit-identical to the
// full-scan oracle and the armed witness agrees with the O(n)
// predicate after every delta. The stream may disconnect the live
// graph outright (the partition scenario): edge toggles are
// unrestricted, so splits, orphan components and heal-time merges all
// occur — and with the failover wrapper on top, every split starts a
// disconnection-detection count-up and an acting-root election, so
// heals land mid-election and acting roots merge whenever the stream
// times them that way. Only the fixed root is immortal. A leading
// byte ≡ 3 (mod 7) swaps the base grid for a bridgy lollipop where
// every tail toggle is a split or a merge. Every mutation flows
// through ApplyDelta — including ones that later reverse, since a
// remove/re-add pair can legitimately renumber ports when older holes
// exist below. After every op, both stacks' reference naming, brought
// up to date with the acting roots, must equal a from-scratch
// per-root DFS preorder.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{0, 1, 4, 0, 2, 9, 0, 0, 1, 4})
	f.Add([]byte{2, 4, 0, 0, 0, 2, 4, 1, 11, 1, 11})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 0, 0, 0, 0})
	// Isolate grid corner 8 (toggle its two incident edges), step,
	// crash node 7 next to the hole, step again.
	f.Add([]byte{1, 9, 1, 11, 0, 2, 6, 0, 0})
	// Lollipop base (leading 10 ≡ 3 mod 7): cut tail bridge {4,5},
	// crash orphaned node 5, then cut bridge {0,4} for a three-way
	// split.
	f.Add([]byte{10, 7, 0, 2, 4, 0, 10, 3, 0, 0})
	// Heal mid-election: cut tail bridge {4,5} (edge 7), take three
	// steps — the orphan {5,6} is mid detection/election — then re-add
	// the same edge and let the interrupted election unwind.
	f.Add([]byte{10, 7, 0, 4, 7, 0, 0})
	// Two acting roots merge: cut {4,5} and {5,6}, orphaning 5 and 6
	// separately (each elects itself), heal {5,6} so the two acting
	// roots contend, then heal {4,5} back into the rooted component.
	f.Add([]byte{10, 7, 4, 8, 0, 4, 8, 0, 0, 4, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		g := graph.Grid(3, 3)
		if len(data) > 0 && data[0]%7 == 3 {
			g = graph.Lollipop(4, 3) // bridges everywhere: splits are one toggle away
		}
		baseEdges := g.Edges()
		mkStack := func() (*failover.Protocol, error) {
			sub, err := token.NewCirculator(g, 0)
			if err != nil {
				return nil, err
			}
			d, err := core.NewDFTNO(g, sub, 0)
			if err != nil {
				return nil, err
			}
			return failover.New(g, d, 0), nil
		}
		pInc, err := mkStack()
		if err != nil {
			t.Fatal(err)
		}
		pFull, err := mkStack()
		if err != nil {
			t.Fatal(err)
		}
		pInc.Randomize(rand.New(rand.NewSource(1)))
		pFull.Randomize(rand.New(rand.NewSource(1)))
		inc := program.NewSystem(pInc, daemon.NewCentral(2))
		full := program.NewSystemFullScan(pFull, daemon.NewCentral(2))
		if _, err := inc.RunUntilLegitimate(0); err != nil {
			t.Fatal(err) // arms the witness
		}

		apply := func(d graph.Delta) {
			inc.ApplyDelta(d)
			full.ApplyDelta(d)
		}

		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}
		for i < len(data) {
			switch next() % 3 {
			case 0: // a few lockstep daemon steps
				for s := 0; s < 3; s++ {
					nInc, errInc := inc.Step()
					nFull, errFull := full.Step()
					if errInc != nil || errFull != nil || nInc != nFull {
						t.Fatalf("step: inc=(%d,%v) full=(%d,%v)", nInc, errInc, nFull, errFull)
					}
				}
			case 1: // toggle an edge of the base grid
				e := baseEdges[int(next())%len(baseEdges)]
				if !g.Alive(e.U) || !g.Alive(e.V) {
					continue
				}
				if g.HasEdge(e.U, e.V) {
					d, err := g.RemoveEdge(e.U, e.V)
					if err != nil {
						t.Fatal(err)
					}
					apply(d)
				} else {
					d, err := g.AddEdge(e.U, e.V)
					if err != nil {
						t.Fatal(err)
					}
					apply(d)
				}
			case 2: // crash a non-root node, or revive the dead one
				if g.NAlive() < g.N() {
					id, d := g.AddNode()
					apply(d)
					for _, e := range baseEdges {
						if (e.U == id || e.V == id) && g.Alive(e.U) && g.Alive(e.V) && !g.HasEdge(e.U, e.V) {
							d2, err := g.AddEdge(e.U, e.V)
							if err != nil {
								t.Fatal(err)
							}
							apply(d2)
						}
					}
					continue
				}
				v := graph.NodeID(1 + int(next())%(g.N()-1)) // never the root
				d, err := g.RemoveNode(v)
				if err != nil {
					t.Fatal(err)
				}
				apply(d)
			}
			if string(pInc.Snapshot()) != string(pFull.Snapshot()) {
				t.Fatal("configurations diverge")
			}
			if inc.EnabledCount() != full.EnabledCount() {
				t.Fatalf("enabled counts diverge: %d vs %d", inc.EnabledCount(), full.EnabledCount())
			}
			if got, want := pInc.WitnessLegitimate(), pInc.Legitimate(); got != want {
				t.Fatalf("witness %v vs Legitimate %v", got, want)
			}
			for _, p := range []*failover.Protocol{pInc, pFull} {
				d := p.Inner().(*core.DFTNO)
				d.Legitimate() // re-derives the naming if the acting roots moved
				if got, want := d.ReferenceNames(), referenceNames(g, p); !slices.Equal(got, want) {
					t.Fatalf("reference naming\n got %v\nwant %v", got, want)
				}
			}
		}
		if inc.Moves() != full.Moves() || inc.Rounds() != full.Rounds() {
			t.Fatalf("counters diverge: inc (m=%d r=%d) vs full (m=%d r=%d)",
				inc.Moves(), inc.Rounds(), full.Moves(), full.Rounds())
		}
	})
}

// referenceNames derives DFTNO's reference naming from scratch for the
// roots authority a declares: one fresh graph.DFSPreorder per live
// effective root in id order, skipping a root an earlier preorder
// already named; nodes no root reaches are −1.
func referenceNames(g *graph.Graph, a program.RootAuthority) []int {
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
