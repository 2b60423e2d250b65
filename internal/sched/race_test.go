//go:build race

package sched

// raceEnabled reports a -race build: the detector's instrumentation
// allocates, and sync.Pool drops a quarter of its Puts at random, so
// allocation budgets are logged there, not enforced.
const raceEnabled = true
