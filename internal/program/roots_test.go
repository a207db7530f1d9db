package program

import (
	"slices"
	"testing"

	"netorient/internal/graph"
)

// oddRoots designates every odd id a root, at an explicit version.
type oddRoots struct{ ver uint64 }

func (a *oddRoots) IsRoot(v graph.NodeID) bool { return v%2 == 1 }
func (a *oddRoots) RootsVersion() uint64       { return a.ver }

// TestRootsDegenerateAndBound: unbound, the root set is the fixed root
// while it is alive and its key is the root's liveness epoch; bound,
// it lists the authority's live roots in id order and its key is the
// authority's version. Moved reports each key change once.
func TestRootsDegenerateAndBound(t *testing.T) {
	g := graph.Path(5)
	r := NewRoots(g, 2)
	if got := r.AppendLive(nil); !slices.Equal(got, []graph.NodeID{2}) || !r.IsRoot(2) || r.IsRoot(1) {
		t.Fatalf("unbound: live %v", got)
	}
	if r.Moved() {
		t.Fatal("fresh root set reports a move")
	}
	if _, err := g.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	if got := r.AppendLive(nil); len(got) != 0 {
		t.Fatalf("dead fixed root: live %v", got)
	}
	if !r.Moved() || r.Moved() {
		t.Fatal("root death: want exactly one move")
	}
	a := &oddRoots{ver: 7}
	r.Bind(a)
	if r.Moved() {
		t.Fatal("Bind must take the authority's key as seen")
	}
	if got := r.AppendLive(nil); !slices.Equal(got, []graph.NodeID{1, 3}) || !r.IsRoot(1) || r.IsRoot(2) {
		t.Fatalf("bound: live %v", got)
	}
	a.ver++
	if !r.Moved() || r.Moved() {
		t.Fatal("version bump: want exactly one move")
	}
	r.Bind(nil)
	if got := r.AppendLive(nil); len(got) != 0 || r.Root() != 2 {
		t.Fatalf("unbound again: live %v, root %d", got, r.Root())
	}
}
