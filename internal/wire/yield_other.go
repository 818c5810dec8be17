//go:build !linux

package wire

// schedYield does nothing where the tick-long wait offerCPU shortens
// has not been measured.
func schedYield() {}
