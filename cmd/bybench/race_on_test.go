//go:build race

package main

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
