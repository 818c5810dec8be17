//go:build race

package federation_test

// raceEnabled reports whether the race detector is compiled in: the
// allocation gates skip themselves under it (it allocates on its own)
// and the differential tests run fewer statements.
const raceEnabled = true
