//go:build race

package core

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of the items put back, so pooled scratch reallocates.
const raceEnabled = true
