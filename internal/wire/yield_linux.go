package wire

import "syscall"

// schedYield is sched_yield(2), entered as a blocking call: the thread
// may be off its CPU for as long as the thread it yields to runs, and
// the runtime must not wait for it to stop the world.
func schedYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
