package graph

// Marks is a reusable node set for bounded searches: an epoch-stamped
// array, so Add and Has are O(1) and emptying the set is one counter
// increment instead of a wipe. The zero value is ready after Reset. Its
// user owns it, so it is not safe for concurrent use; concurrent
// searches each need their own.
type Marks struct {
	stamp []uint32
	epoch uint32
}

// Reset empties the set and makes it cover the ids 0..n-1, growing the
// stamp array when needed. It wipes the array once each time the epoch
// wraps, so stale stamps never match.
func (m *Marks) Reset(n int) {
	if len(m.stamp) < n {
		m.stamp = append(m.stamp, make([]uint32, n-len(m.stamp))...)
	}
	m.epoch++
	if m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
}

// Add inserts v and reports whether it was new.
func (m *Marks) Add(v NodeID) bool {
	if m.stamp[v] == m.epoch {
		return false
	}
	m.stamp[v] = m.epoch
	return true
}

// Has reports whether v is in the set.
func (m *Marks) Has(v NodeID) bool { return m.stamp[v] == m.epoch }
