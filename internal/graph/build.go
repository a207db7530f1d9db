package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Ring returns the n-cycle 0-1-…-(n-1)-0. n must be ≥ 3.
func Ring(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.MustAddEdge(NodeID(i), NodeID((i+1)%n))
	}
	return b.Build()
}

// Path returns the path 0-1-…-(n-1). n must be ≥ 1.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.MustAddEdge(NodeID(i), NodeID(i+1))
	}
	return b.Build()
}

// Star returns the star with centre 0 and leaves 1..n-1.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.MustAddEdge(0, NodeID(i))
	}
	return b.Build()
}

// Complete returns the clique K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.MustAddEdge(NodeID(i), NodeID(j))
		}
	}
	return b.Build()
}

// Wheel returns a cycle on nodes 1..n-1 plus a hub 0 adjacent to all.
// n must be ≥ 4.
func Wheel(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.MustAddEdge(0, NodeID(i))
	}
	for i := 1; i < n; i++ {
		next := i + 1
		if next == n {
			next = 1
		}
		b.MustAddEdge(NodeID(i), NodeID(next))
	}
	return b.Build()
}

// Grid returns the rows×cols grid graph, node (r,c) = r*cols+c.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.MustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.MustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Torus returns the rows×cols torus (grid with wraparound). rows and
// cols must be ≥ 3 to avoid duplicate edges.
func Torus(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) NodeID { return NodeID(((r+rows)%rows)*cols + (c+cols)%cols) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.MustAddEdge(id(r, c), id(r, c+1))
			b.MustAddEdge(id(r, c), id(r+1, c))
		}
	}
	return b.Build()
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes.
func Hypercube(dim int) *Graph {
	n := 1 << dim
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			u := v ^ (1 << bit)
			if v < u {
				b.MustAddEdge(NodeID(v), NodeID(u))
			}
		}
	}
	return b.Build()
}

// KAryTree returns a complete k-ary tree with n nodes rooted at 0;
// node i has parent (i-1)/k.
func KAryTree(n, k int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.MustAddEdge(NodeID((i-1)/k), NodeID(i))
	}
	return b.Build()
}

// Caterpillar returns a path of spineLen nodes with legsPerSpine leaves
// attached to every spine node. It provides trees of controllable height
// at a given size for the T2 experiment.
func Caterpillar(spineLen, legsPerSpine int) *Graph {
	n := spineLen * (1 + legsPerSpine)
	b := NewBuilder(n)
	for i := 0; i+1 < spineLen; i++ {
		b.MustAddEdge(NodeID(i), NodeID(i+1))
	}
	next := spineLen
	for i := 0; i < spineLen; i++ {
		for l := 0; l < legsPerSpine; l++ {
			b.MustAddEdge(NodeID(i), NodeID(next))
			next++
		}
	}
	return b.Build()
}

// Lollipop returns a clique of cliqueSize nodes with a path of tailLen
// nodes attached to clique node 0.
func Lollipop(cliqueSize, tailLen int) *Graph {
	n := cliqueSize + tailLen
	b := NewBuilder(n)
	for i := 0; i < cliqueSize; i++ {
		for j := i + 1; j < cliqueSize; j++ {
			b.MustAddEdge(NodeID(i), NodeID(j))
		}
	}
	prev := NodeID(0)
	for i := 0; i < tailLen; i++ {
		v := NodeID(cliqueSize + i)
		b.MustAddEdge(prev, v)
		prev = v
	}
	return b.Build()
}

// Circulant returns the circulant graph C_n(offsets): node i is
// adjacent to i±d (mod n) for every d in offsets — the chordal rings
// the chordal sense of direction is named after (§2.2). Offsets must
// be distinct values in 1..n/2.
func Circulant(n int, offsets []int) (*Graph, error) {
	b := NewBuilder(n)
	seen := make(map[int]bool, len(offsets))
	for _, d := range offsets {
		if d < 1 || d > n/2 {
			return nil, fmt.Errorf("graph: circulant offset %d outside 1..%d", d, n/2)
		}
		if seen[d] {
			return nil, fmt.Errorf("graph: duplicate circulant offset %d", d)
		}
		seen[d] = true
		for i := 0; i < n; i++ {
			j := (i + d) % n
			if !b.HasEdge(NodeID(i), NodeID(j)) {
				b.MustAddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return b.BuildConnected()
}

// RandomTree returns a uniformly random labelled tree on n nodes
// (random Prüfer-like attachment: node i attaches to a uniform earlier
// node), using rng for all randomness.
func RandomTree(n int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.MustAddEdge(NodeID(rng.Intn(i)), NodeID(i))
	}
	return b.Build()
}

// RandomConnected returns a connected graph on n nodes: a random
// spanning tree plus extra distinct random edges.
func RandomConnected(n, extraEdges int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.MustAddEdge(NodeID(rng.Intn(i)), NodeID(i))
	}
	maxExtra := n*(n-1)/2 - (n - 1)
	if extraEdges > maxExtra {
		extraEdges = maxExtra
	}
	for added := 0; added < extraEdges; {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v || b.HasEdge(u, v) {
			continue
		}
		b.MustAddEdge(u, v)
		added++
	}
	return b.Build()
}

// Gnp returns an Erdős–Rényi G(n,p) draw, each of the n·(n-1)/2
// possible edges present independently with probability p. The draw is
// rejected with a wrapped ErrNotConnected when it is disconnected —
// churn experiments need a connected base graph, and silently patching
// the draw would bias the degree distribution; raise p (the sharp
// connectivity threshold is p ≈ ln(n)/n) or reseed instead.
func Gnp(n int, p float64, rng *rand.Rand) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: gnp needs n ≥ 1, got %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: gnp probability %g outside [0,1]", p)
	}
	if p == 1 {
		return Complete(n), nil
	}
	b := NewBuilder(n)
	if p > 0 {
		// Geometric skip-sampling: instead of flipping one coin per
		// candidate pair (Θ(n²)), draw the gap to the next present
		// edge directly — O(n+m) total, which is what lets churn
		// experiments use sparse draws at realistic sizes.
		lq := math.Log(1 - p)
		for i := 0; i < n; i++ {
			j := i
			for {
				j += 1 + int(math.Log(1-rng.Float64())/lq)
				if j >= n || j < 0 { // j<0 guards int overflow on tiny p
					break
				}
				b.MustAddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	g := b.Build()
	if !g.Connected() {
		return nil, fmt.Errorf("graph: G(n=%d, p=%g) draw is disconnected — raise p above ln(n)/n ≈ %.4f or use another seed: %w",
			n, p, math.Log(float64(n))/float64(n), ErrNotConnected)
	}
	return g, nil
}

// GnpAny returns an Erdős–Rényi G(n,p) draw like Gnp but *without* the
// connectivity rejection: the draw is returned as sampled, possibly
// disconnected. This is the constructor for partition-tolerance work —
// per-component legitimacy, orphan detection, churn with
// -allow-disconnect — where a disconnected topology is the point, not
// a sampling accident.
func GnpAny(n int, p float64, rng *rand.Rand) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: gnp-any needs n ≥ 1, got %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: gnp-any probability %g outside [0,1]", p)
	}
	if p == 1 {
		return Complete(n), nil
	}
	b := NewBuilder(n)
	if p > 0 {
		lq := math.Log(1 - p)
		for i := 0; i < n; i++ {
			j := i
			for {
				j += 1 + int(math.Log(1-rng.Float64())/lq)
				if j >= n || j < 0 {
					break
				}
				b.MustAddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return b.Build(), nil
}

// Barabasi returns a Barabási–Albert preferential-attachment graph:
// nodes 0..m form a seed clique; every later node attaches to m
// distinct existing nodes chosen proportionally to their current
// degree. The result is connected by construction and has the
// heavy-tailed degree distribution churn experiments want (hub loss is
// the interesting fault). Requires n ≥ m+1 and m ≥ 1.
func Barabasi(n, m int, rng *rand.Rand) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("graph: barabasi needs m ≥ 1, got %d", m)
	}
	if n < m+1 {
		return nil, fmt.Errorf("graph: barabasi needs n ≥ m+1, got n=%d m=%d", n, m)
	}
	b := NewBuilder(n)
	// targets holds one entry per edge endpoint, so uniform sampling
	// from it is degree-proportional sampling of nodes.
	targets := make([]NodeID, 0, 2*(m*(m+1)/2+(n-m-1)*m))
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			b.MustAddEdge(NodeID(i), NodeID(j))
			targets = append(targets, NodeID(i), NodeID(j))
		}
	}
	chosen := make(map[NodeID]bool, m)
	attach := make([]NodeID, 0, m)
	for v := m + 1; v < n; v++ {
		for q := range chosen {
			delete(chosen, q)
		}
		for len(chosen) < m {
			chosen[targets[rng.Intn(len(targets))]] = true
		}
		// Attach in ascending id order so equal seeds give equal
		// graphs regardless of map iteration. Sorting the m chosen
		// targets (not scanning 0..v probing the map) keeps the
		// generator O(n·m log m); the scan made n = 2¹⁸ builds take
		// minutes.
		attach = attach[:0]
		for q := range chosen {
			attach = append(attach, q)
		}
		sort.Slice(attach, func(i, j int) bool { return attach[i] < attach[j] })
		for _, q := range attach {
			b.MustAddEdge(NodeID(v), q)
			targets = append(targets, NodeID(v), q)
		}
	}
	return b.Build(), nil
}

// PaperTokenExample returns the 5-node rooted graph of Figure 3.1.1
// (nodes r,a,b,c,d mapped to ids 0,4,1,3,2 in DFS-preorder so that the
// paper's labels match the ids) — edges r–b, b–d, d–c, r–a with the
// root's port order (b, a), reproducing the paper's naming trace
// r=0, b=1, d=2, c=3, a=4.
//
// Returned ids: r=0, b=1, d=2, c=3, a=4.
func PaperTokenExample() *Graph {
	const (
		r = NodeID(0)
		b = NodeID(1)
		d = NodeID(2)
		c = NodeID(3)
		a = NodeID(4)
	)
	bd := NewBuilder(5)
	bd.MustAddEdge(r, b) // root's port 0 → b (visited first)
	bd.MustAddEdge(r, a) // root's port 1 → a (visited last)
	bd.MustAddEdge(b, d)
	bd.MustAddEdge(d, c)
	return bd.Build()
}

// PaperTreeExample returns the 5-node rooted tree of Figure 4.1.1: the
// root (0) has an internal child (1, weight 3) and a leaf child (4,
// weight 1); the internal child has two leaves (2, 3). The STNO naming
// is 0,1,2,3,4 in preorder.
func PaperTreeExample() *Graph {
	b := NewBuilder(5)
	b.MustAddEdge(0, 1) // root → internal
	b.MustAddEdge(1, 2) // internal → leaf
	b.MustAddEdge(1, 3) // internal → leaf
	b.MustAddEdge(0, 4) // root → leaf
	return b.Build()
}

// PaperChordalExample returns a 5-node cycle with one chord — a small
// graph in the spirit of Figure 2.2.1 used to illustrate the chordal
// sense of direction (the figure's exact topology is not recoverable
// from the text; any graph exhibits the labeling).
func PaperChordalExample() *Graph {
	b := NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.MustAddEdge(NodeID(i), NodeID((i+1)%5))
	}
	b.MustAddEdge(0, 2) // chord
	return b.Build()
}

// Spec-parser guard rails: Named is fed by CLI flags and fuzzers, so
// before invoking a generator it bounds the node and edge counts the
// spec implies. Bigger graphs are for programmatic construction, where
// the caller owns the memory decision.
const (
	maxSpecNodes = 1 << 21
	maxSpecEdges = 1 << 23
)

// checkSpecSize validates the node/edge counts a spec implies, with
// the per-family minimum node count.
func checkSpecSize(family string, n, m, minN int64) error {
	if n < minN {
		return fmt.Errorf("graph: %s needs at least %d nodes, got %d", family, minN, n)
	}
	if n > maxSpecNodes {
		return fmt.Errorf("graph: %s spec asks for %d nodes, parser cap is %d", family, n, maxSpecNodes)
	}
	if m > maxSpecEdges {
		return fmt.Errorf("graph: %s spec implies %d edges, parser cap is %d", family, m, maxSpecEdges)
	}
	return nil
}

// Named returns a generator by name, for the CLI tools. Supported:
// ring:n path:n star:n clique:n wheel:n grid:RxC torus:RxC cube:d
// tree:n:k caterpillar:S:L lollipop:C:T random:n:extra:seed
// rtree:n:seed circulant:n:chord gnp:n:p:seed gnp-any:n:p:seed
// barabasi:n:m:seed paper-token paper-tree paper-chordal.
// gnp-any is the G(n,p) draw without the connectivity rejection —
// possibly disconnected by design.
//
// Named rejects specs implying absurd sizes (see maxSpecNodes /
// maxSpecEdges) and sizes below each family's minimum, so arbitrary
// input cannot drive it into a panic or an unbounded allocation; the
// FuzzNamed fuzz target pins this.
func Named(spec string) (*Graph, error) {
	var (
		a, b2, c int
		f        float64
	)
	sz := func(family string, n, m, minN int64) error { return checkSpecSize(family, n, m, minN) }
	switch {
	case spec == "paper-token":
		return PaperTokenExample(), nil
	case spec == "paper-tree":
		return PaperTreeExample(), nil
	case spec == "paper-chordal":
		return PaperChordalExample(), nil
	case scan(spec, "ring:%d", &a):
		if err := sz("ring", int64(a), int64(a), 3); err != nil {
			return nil, err
		}
		return Ring(a), nil
	case scan(spec, "path:%d", &a):
		if err := sz("path", int64(a), int64(a), 1); err != nil {
			return nil, err
		}
		return Path(a), nil
	case scan(spec, "star:%d", &a):
		if err := sz("star", int64(a), int64(a), 1); err != nil {
			return nil, err
		}
		return Star(a), nil
	case scan(spec, "clique:%d", &a):
		if err := sz("clique", int64(a), int64(a)*int64(a-1)/2, 1); err != nil {
			return nil, err
		}
		return Complete(a), nil
	case scan(spec, "wheel:%d", &a):
		if err := sz("wheel", int64(a), 2*int64(a), 4); err != nil {
			return nil, err
		}
		return Wheel(a), nil
	case scan(spec, "grid:%dx%d", &a, &b2):
		// Bound each dimension before multiplying: the n = rows·cols
		// product of two unchecked ints can wrap int64 past the cap.
		if a < 1 || b2 < 1 || a > maxSpecNodes || b2 > maxSpecNodes {
			return nil, fmt.Errorf("graph: grid dimensions outside 1..%d, got %dx%d", maxSpecNodes, a, b2)
		}
		if err := sz("grid", int64(a)*int64(b2), 2*int64(a)*int64(b2), 1); err != nil {
			return nil, err
		}
		return Grid(a, b2), nil
	case scan(spec, "torus:%dx%d", &a, &b2):
		if a < 3 || b2 < 3 || a > maxSpecNodes || b2 > maxSpecNodes {
			return nil, fmt.Errorf("graph: torus dimensions outside 3..%d, got %dx%d", maxSpecNodes, a, b2)
		}
		if err := sz("torus", int64(a)*int64(b2), 2*int64(a)*int64(b2), 9); err != nil {
			return nil, err
		}
		return Torus(a, b2), nil
	case scan(spec, "cube:%d", &a):
		if a < 0 || a > 19 {
			return nil, fmt.Errorf("graph: cube dimension %d outside 0..19", a)
		}
		return Hypercube(a), nil
	case scan(spec, "tree:%d:%d", &a, &b2):
		if b2 < 1 {
			return nil, fmt.Errorf("graph: tree arity must be ≥ 1, got %d", b2)
		}
		if err := sz("tree", int64(a), int64(a), 1); err != nil {
			return nil, err
		}
		return KAryTree(a, b2), nil
	case scan(spec, "caterpillar:%d:%d", &a, &b2):
		if b2 < 0 || b2 > maxSpecNodes || a > maxSpecNodes {
			return nil, fmt.Errorf("graph: caterpillar shape outside bounds, got %d:%d", a, b2)
		}
		n := int64(a) * int64(1+b2)
		if err := sz("caterpillar", n, n, 1); err != nil {
			return nil, err
		}
		return Caterpillar(a, b2), nil
	case scan(spec, "lollipop:%d:%d", &a, &b2):
		if a < 1 || b2 < 0 {
			return nil, fmt.Errorf("graph: lollipop needs a clique of ≥ 1 node and a tail of ≥ 0, got %d and %d", a, b2)
		}
		if err := sz("lollipop", int64(a)+int64(b2), int64(a)*int64(a-1)/2+int64(b2), 1); err != nil {
			return nil, err
		}
		return Lollipop(a, b2), nil
	case scan(spec, "random:%d:%d:%d", &a, &b2, &c):
		if b2 < 0 {
			return nil, fmt.Errorf("graph: random extra edges must be ≥ 0, got %d", b2)
		}
		if err := sz("random", int64(a), int64(a)+int64(b2), 1); err != nil {
			return nil, err
		}
		return RandomConnected(a, b2, rand.New(rand.NewSource(int64(c)))), nil
	case scan(spec, "rtree:%d:%d", &a, &b2):
		if err := sz("rtree", int64(a), int64(a), 1); err != nil {
			return nil, err
		}
		return RandomTree(a, rand.New(rand.NewSource(int64(b2)))), nil
	case scan(spec, "circulant:%d:%d", &a, &b2):
		if err := sz("circulant", int64(a), 2*int64(a), 3); err != nil {
			return nil, err
		}
		return Circulant(a, []int{1, b2})
	case scan(spec, "gnp-any:%d:%g:%d", &a, &f, &c):
		if !(f >= 0 && f <= 1) { // also rejects NaN
			return nil, fmt.Errorf("graph: gnp-any probability %g outside [0,1]", f)
		}
		if err := sz("gnp-any", int64(a), int64(float64(a)*float64(a)/2*f)+int64(a), 1); err != nil {
			return nil, err
		}
		return GnpAny(a, f, rand.New(rand.NewSource(int64(c))))
	case scan(spec, "gnp:%d:%g:%d", &a, &f, &c):
		if !(f >= 0 && f <= 1) { // also rejects NaN
			return nil, fmt.Errorf("graph: gnp probability %g outside [0,1]", f)
		}
		if err := sz("gnp", int64(a), int64(float64(a)*float64(a)/2*f)+int64(a), 1); err != nil {
			return nil, err
		}
		return Gnp(a, f, rand.New(rand.NewSource(int64(c))))
	case scan(spec, "barabasi:%d:%d:%d", &a, &b2, &c):
		if err := sz("barabasi", int64(a), int64(a)*int64(b2), 1); err != nil {
			return nil, err
		}
		return Barabasi(a, b2, rand.New(rand.NewSource(int64(c))))
	}
	return nil, fmt.Errorf("graph: unknown spec %q", spec)
}

func scan(s, format string, args ...interface{}) bool {
	n, err := fmt.Sscanf(s, format, args...)
	return err == nil && n == len(args)
}
