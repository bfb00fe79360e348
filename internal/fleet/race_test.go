//go:build race

package fleet

// raceEnabled reports a race-detector build, whose instrumentation
// and sync.Pool randomization add allocations the budgets do not
// count.
const raceEnabled = true
