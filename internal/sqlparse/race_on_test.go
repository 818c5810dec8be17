//go:build race

package sqlparse_test

// raceEnabled reports whether the race detector is compiled in: the
// allocation gate skips itself under it.
const raceEnabled = true
