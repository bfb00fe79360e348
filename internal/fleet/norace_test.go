//go:build !race

package fleet

// raceEnabled reports a race-detector build.
const raceEnabled = false
