//go:build race

package serve

// Under the race detector sync.Pool drops pooled items at random, so an
// allocation count there says nothing about the pools' steady state.
func init() { raceEnabled = true }
