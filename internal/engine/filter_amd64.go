package engine

// useAVX2 is whether filterTable's between arm runs filterBetweenAVX2:
// set once, from the CPU (AVX2, AVX, POPCNT and an OS that saves the
// YMM registers).
var useAVX2 = hasAVX2()

// filterBetweenAVX2 writes to dst the numbers of the rows i < n with
// lo <= left[i] <= hi, in order, and returns how many there are. n is a
// multiple of 4 and dst holds n entries: four rows are compared at once
// and their matches stored as one 16-byte write at dst[k], whatever
// matched. The compares are ordered, as Go's are: a NaN on either side
// selects nothing, −0 equals +0.
//
//go:noescape
func filterBetweenAVX2(dst *int32, left *float64, n int, lo, hi float64) int

func hasAVX2() bool
