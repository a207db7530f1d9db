package experiments

import (
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/trace"
)

// T3Space reproduces the space accounting of §3.2.3, §4.2.3 and
// Chapter 5: both orientation layers occupy O(Δ×log N) bits per node;
// STNO pays an extra Δ×⌈log₂N⌉ for the Start array it needs to steer
// the tree (the paper's "O(Δ×log N) more bits to maintain the
// spanning tree"), while DFTNO's substrate adds only O(log N)-class
// state. Columns report measured bits per node (maximum over nodes)
// against the Δ·⌈log₂N⌉ yardstick.
func T3Space(cfg Config) (*trace.Table, error) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring-16", graph.Ring(16)},
		{"ring-64", graph.Ring(64)},
		{"grid-8x8", graph.Grid(8, 8)},
		{"clique-16", graph.Complete(16)},
		{"clique-32", graph.Complete(32)},
		{"star-64", graph.Star(64)},
	}
	if cfg.Quick {
		graphs = graphs[:4]
	}
	tb := trace.NewTable(
		"T3 (§3.2.3/§4.2.3/Ch.5) — per-node space, in bits (max over nodes); yardstick Δ·⌈log₂N⌉",
		"graph", "n", "Δ", "⌈log₂N⌉", "Δ·⌈log₂N⌉",
		"DFTNO η,Max,π", "STNO Wt,η,Start,π", "STNO−DFTNO (Start array)",
		"DFTNO substrate", "STNO substrate")
	for _, gr := range graphs {
		g := gr.g
		d, err := newDFTNO(g, 0)
		if err != nil {
			return nil, err
		}
		s, err := newSTNO(g, 0)
		if err != nil {
			return nil, err
		}
		lg := program.Log2Ceil(g.N())
		delta := g.MaxDegree()
		var dOrient, sOrient, dSub, sSub int
		for v := 0; v < g.N(); v++ {
			id := graph.NodeID(v)
			if b := d.OwnStateBits(id); b > dOrient {
				dOrient = b
			}
			if b := s.OwnStateBits(id); b > sOrient {
				sOrient = b
			}
			if m, ok := d.Substrate().(program.SpaceMeter); ok {
				if b := m.StateBits(id); b > dSub {
					dSub = b
				}
			}
			if m, ok := s.Substrate().(program.SpaceMeter); ok {
				if b := m.StateBits(id); b > sSub {
					sSub = b
				}
			}
		}
		tb.AddRow(gr.name, g.N(), delta, lg, delta*lg,
			dOrient, sOrient, sOrient-dOrient, dSub, sSub)
	}
	return tb, nil
}
