//go:build !linux

package multipass_test

import "time"

// clockName names the clock threadClock reads, in benchmark metric
// names.
const clockName = "wall"

var clockStart = time.Now()

// threadClock falls back to wall time where the thread CPU clock is not
// read.
func threadClock() (time.Duration, error) { return time.Since(clockStart), nil }
