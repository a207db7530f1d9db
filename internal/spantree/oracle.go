package spantree

import (
	"fmt"

	"netorient/internal/graph"
	"netorient/internal/program"
)

// Oracle is a correct-by-construction tree substrate: a fixed spanning
// tree with no actions, legitimate by definition. It lets the
// orientation layer be tested in isolation, matching the paper's
// layered proofs ("after the spanning tree protocol stabilizes…").
type Oracle struct {
	g    *graph.Graph
	root graph.NodeID
	par  []graph.NodeID
}

// Compile-time interface compliance.
var (
	_ program.Protocol   = (*Oracle)(nil)
	_ program.Legitimacy = (*Oracle)(nil)
	_ Substrate          = (*Oracle)(nil)
)

// NewOracle wraps the given parent vector (which must describe a
// spanning tree of g rooted at root) as a static substrate.
func NewOracle(g *graph.Graph, root graph.NodeID, parent []graph.NodeID) (*Oracle, error) {
	if !graph.SpanningParent(g, parent, root) {
		return nil, fmt.Errorf("spantree: parent vector is not a spanning tree of %s rooted at %d", g, root)
	}
	par := make([]graph.NodeID, len(parent))
	copy(par, parent)
	return &Oracle{g: g, root: root, par: par}, nil
}

// NewBFSOracle returns an Oracle holding the BFS tree of g from root.
func NewBFSOracle(g *graph.Graph, root graph.NodeID) (*Oracle, error) {
	_, par := graph.BFSFrom(g, root)
	return NewOracle(g, root, par)
}

// NewDFSOracle returns an Oracle holding the deterministic
// port-ordered DFS tree of g from root — the tree under which STNO
// names nodes exactly like DFTNO.
func NewDFSOracle(g *graph.Graph, root graph.NodeID) (*Oracle, error) {
	_, par := graph.DFSPreorder(g, root)
	return NewOracle(g, root, par)
}

// Name implements program.Protocol.
func (o *Oracle) Name() string { return "tree-oracle" }

// Graph implements program.Protocol.
func (o *Oracle) Graph() *graph.Graph { return o.g }

// Enabled implements program.Protocol; the oracle never moves.
func (o *Oracle) Enabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	return buf
}

// Execute implements program.Protocol.
func (o *Oracle) Execute(v graph.NodeID, a program.ActionID) bool { return false }

// Legitimate implements program.Legitimacy.
func (o *Oracle) Legitimate() bool { return true }

// Root implements Substrate.
func (o *Oracle) Root() graph.NodeID { return o.root }

// Parent implements Substrate.
func (o *Oracle) Parent(v graph.NodeID) graph.NodeID { return o.par[v] }

// ParentLocality implements Substrate: the tree is fixed, so Parent
// reads no mutable state at all.
func (o *Oracle) ParentLocality() int { return 0 }
