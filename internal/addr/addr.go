// Package addr provides address arithmetic shared by the trace,
// synthesis and cache packages.
//
// The paper (Hill & Smith, ISCA 1984) studies 16-bit (PDP-11, Z8000) and
// 32-bit (VAX-11, System/370) architectures but computes gross cache
// sizes assuming a 32-bit address space throughout.  We use a 64-bit
// address type so that callers never worry about overflow; individual
// workloads constrain themselves to their architecture's address-space
// size.
package addr

import "fmt"

// Addr is a byte address in the simulated machine's address space.
type Addr uint64

// String formats the address in hexadecimal, the conventional notation
// for trace files and diagnostics.
func (a Addr) String() string { return fmt.Sprintf("%#x", uint64(a)) }

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// Log2 returns the base-2 logarithm of v.  v must be a positive power of
// two; Log2 panics otherwise, because every caller in this module passes
// a validated cache geometry parameter and a silent wrong answer would
// corrupt set indexing.
func Log2(v uint64) uint {
	if !IsPow2(v) {
		panic(fmt.Sprintf("addr.Log2: %d is not a power of two", v))
	}
	n := uint(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// AlignDown rounds a down to the nearest multiple of size.  size must be
// a power of two.
func AlignDown(a Addr, size uint64) Addr {
	return a &^ Addr(size-1)
}

// IsAligned reports whether a is a multiple of size (a power of two).
func IsAligned(a Addr, size uint64) bool {
	return a&Addr(size-1) == 0
}

// Offset returns the byte offset of a within its enclosing aligned
// region of the given power-of-two size.
func Offset(a Addr, size uint64) uint64 {
	return uint64(a) & (size - 1)
}
