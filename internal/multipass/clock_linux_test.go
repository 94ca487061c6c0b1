package multipass_test

import (
	"syscall"
	"time"
	"unsafe"
)

// clockName names the clock threadClock reads, in benchmark metric
// names.
const clockName = "cpu"

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadClock returns the calling thread's CPU time, exact to the
// nanosecond.  Time the host gives the virtual CPU to another guest and
// time spent runnable but waiting are left out, so a goroutine locked
// to its OS thread times only its own work.
func threadClock() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}
