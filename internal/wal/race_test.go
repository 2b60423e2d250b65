//go:build race

package wal

// raceEnabled reports a -race build, whose instrumentation allocates: the
// scan's allocation budget is logged there, not enforced.
const raceEnabled = true
