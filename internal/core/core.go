// Package core implements the paper's primary contribution: the two
// self-stabilizing network orientation protocols.
//
//   - DFTNO (Algorithm 3.1.1) rides a depth-first token circulation
//     substrate: the circulating token acts as a counter, naming each
//     node on its first visit of a round; backtracking propagates the
//     running maximum; once names are stable each node locally fixes
//     its chordal edge labels. It stabilizes in O(n) steps after the
//     substrate does.
//
//   - STNO (Algorithm 4.1.2) rides a spanning-tree substrate: leaves
//     report weight 1, internal nodes aggregate subtree weights
//     bottom-up, and the root then distributes disjoint name ranges
//     top-down, each node taking the smallest name of its range; edge
//     labels (tree and non-tree alike) follow locally. It stabilizes
//     in O(h) steps after the substrate does.
//
// Both establish the specification SP_NO of §2.3 — SP1 (globally
// unique names η_p ∈ 0..N−1) and SP2 (π_p[(p,q)] = (η_p − η_q) mod N)
// — i.e. a chordal sense of direction, and both occupy O(Δ·log N) bits
// per node beyond their substrate. Both hold that state (η, π and N) in
// one orientation type and embed a program.Layer, which composes their
// own actions, clauses, snapshot fields and corruption draws with the
// substrate's.
package core
