//go:build race

package engine_test

// raceEnabled reports whether the race detector is compiled in; the
// differential tests run fewer statements under it.
const raceEnabled = true
