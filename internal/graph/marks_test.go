package graph

import "testing"

// TestMarks: Add reports novelty, Reset empties the set and grows it,
// and an epoch wrap wipes stale stamps instead of matching them.
func TestMarks(t *testing.T) {
	var m Marks
	m.Reset(4)
	if !m.Add(2) || m.Add(2) || !m.Has(2) || m.Has(1) {
		t.Fatal("Add/Has disagree on a fresh set")
	}
	m.Reset(8)
	if m.Has(2) {
		t.Fatal("Reset kept a member")
	}
	if !m.Add(7) || !m.Has(7) {
		t.Fatal("Reset did not grow the set")
	}
	m.Add(3)
	m.epoch = ^uint32(0) // the next Reset wraps to epoch 0
	m.stamp[5] = 1       // a stale stamp that would match epoch 1
	m.Reset(8)
	for v := NodeID(0); v < 8; v++ {
		if m.Has(v) {
			t.Fatalf("node %d survived the epoch wrap", v)
		}
	}
}
