package graph

// ConflictAdjacency computes the conflict graph of a member set under a
// distance bound: members[i] and members[j] conflict iff their graph
// distance is at most radius. The result is indexed like members —
// adj[i] lists the member *indices* j≠i within the bound, each edge
// appearing in both directions.
//
// The sharded parallel stepper uses it with radius = 2R over the
// frontier: two radius-R influence balls intersect exactly when their
// centres are within distance 2R, so an independent set of this
// conflict graph is a set of frontier moves with pairwise-disjoint
// balls — simultaneously fireable under the paper's daemon model. A
// greedy coloring of the conflict graph therefore partitions the
// frontier into concurrently executable waves.
//
// Cost is one depth-bounded BFS per member, O(Σ |B(m, radius)| edges)
// total, with one O(n) Marks set reused across members.
// Dead members and holes in mutated port spaces are skipped the same
// way every traversal in this package skips them.
func ConflictAdjacency(g *Graph, members []NodeID, radius int) [][]int32 {
	n := g.N()
	adj := make([][]int32, len(members))
	if len(members) == 0 || radius <= 0 {
		return adj
	}
	// memberIdx maps node id -> index in members (-1 otherwise).
	memberIdx := make([]int32, n)
	for i := range memberIdx {
		memberIdx[i] = -1
	}
	for i, m := range members {
		memberIdx[m] = int32(i)
	}
	// Depth-bounded BFS per member; seen holds the current member's
	// search.
	var seen Marks
	queue := make([]NodeID, 0, 64)
	for i, m := range members {
		if !g.Alive(m) {
			continue
		}
		seen.Reset(n)
		seen.Add(m)
		queue = append(queue[:0], m)
		for hop, lo := 0, 0; hop < radius; hop++ {
			hi := len(queue)
			for _, u := range queue[lo:hi] {
				for _, q := range g.Neighbors(u) {
					if q == None || !seen.Add(q) {
						continue
					}
					queue = append(queue, q)
					if j := memberIdx[q]; j >= 0 {
						adj[i] = append(adj[i], j)
					}
				}
			}
			if len(queue) == hi {
				break
			}
			lo = hi
		}
	}
	return adj
}
