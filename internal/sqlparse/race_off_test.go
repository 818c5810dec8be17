//go:build !race

package sqlparse_test

const raceEnabled = false
