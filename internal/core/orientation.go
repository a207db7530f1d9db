package core

import (
	"fmt"

	"netorient/internal/graph"
	"netorient/internal/sod"
)

// orientation is the chordal orientation state DFTNO and STNO share:
// the names η (SP1), one label π per port (SP2) and the agreed size
// bound N both are taken modulo. Each layer adds its own variables
// and keeps its own snapshot and corruption order around these.
type orientation struct {
	g       *graph.Graph
	modulus int
	eta     []int
	pi      [][]int
}

// newOrientation allocates zeroed orientation state on g. modulus is
// N, the agreed bound on the network size (0 means exactly n).
func newOrientation(g *graph.Graph, modulus int) (orientation, error) {
	if modulus == 0 {
		modulus = g.N()
	}
	if modulus < g.N() {
		return orientation{}, fmt.Errorf("core: modulus %d below node count %d", modulus, g.N())
	}
	o := orientation{g: g, modulus: modulus, eta: make([]int, g.N()), pi: make([][]int, g.N())}
	for v := range o.pi {
		o.pi[v] = make([]int, g.Ports(graph.NodeID(v)))
	}
	return o, nil
}

// Modulus returns N.
func (o *orientation) Modulus() int { return o.modulus }

// Names returns a copy of the current η vector.
func (o *orientation) Names() []int {
	out := make([]int, len(o.eta))
	copy(out, o.eta)
	return out
}

// Labeling exports the current orientation.
func (o *orientation) Labeling() *sod.Labeling {
	l := &sod.Labeling{
		Modulus: o.modulus,
		Names:   o.Names(),
		Labels:  make([][]int, o.g.N()),
	}
	for v := range o.pi {
		l.Labels[v] = make([]int, len(o.pi[v]))
		copy(l.Labels[v], o.pi[v])
	}
	return l
}

// invalidEdgeLabel is the paper's InvalidEdgelabel(p) predicate. Hole
// ports have no edge to label and are skipped; their stale π entries
// are dead state the next labeling of a re-added edge overwrites.
func (o *orientation) invalidEdgeLabel(v graph.NodeID) bool {
	for port, q := range o.g.Neighbors(v) {
		if q == graph.None {
			continue
		}
		if o.pi[v][port] != sod.ChordalLabel(o.eta[v], o.eta[q], o.modulus) {
			return true
		}
	}
	return false
}

// relabel is the edge-labeling statement: π_v[l] := (η_v − η_q) mod N
// on every live port.
func (o *orientation) relabel(v graph.NodeID) {
	for port, q := range o.g.Neighbors(v) {
		if q != graph.None {
			o.pi[v][port] = sod.ChordalLabel(o.eta[v], o.eta[q], o.modulus)
		}
	}
}

// grow covers a grown id space with η and π, raising N to the new
// node count when it fell below (every SP2 label is then stale, which
// the edge-labeling action rewrites during re-stabilization), and
// rebinds π of every touched node to its current port space. It
// reports whether the id space grew.
func (o *orientation) grow(d graph.Delta) bool {
	n := o.g.N()
	grew := len(o.eta) < n
	if grew {
		for len(o.eta) < n {
			o.eta = append(o.eta, 0)
			o.pi = append(o.pi, nil)
		}
		o.modulus = max(o.modulus, n)
	}
	for _, v := range d.Touched {
		for len(o.pi[v]) < o.g.Ports(v) {
			o.pi[v] = append(o.pi[v], 0)
		}
	}
	return grew
}
