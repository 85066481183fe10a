//go:build !race

package snap_test

// raceEnabled lets TestSwitchRunZeroAlloc skip its exact-zero assertion
// under the race runtime, whose instrumentation itself allocates; the
// visit still runs there, race-checked.
const raceEnabled = false
