//go:build !race

package federation_test

const raceEnabled = false
