//go:build !amd64

package engine

// useAVX2 is false: the kernel is amd64 assembly, and filterTable runs
// its Go loop on every row.
var useAVX2 = false

func filterBetweenAVX2(dst *int32, left *float64, n int, lo, hi float64) int {
	panic("engine: filterBetweenAVX2 is amd64 only")
}
