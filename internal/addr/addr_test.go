package addr

import (
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	cases := []struct {
		v    uint64
		want bool
	}{
		{0, false}, {1, true}, {2, true}, {3, false}, {4, true},
		{5, false}, {6, false}, {7, false}, {8, true}, {1024, true},
		{1023, false}, {1 << 31, true}, {1 << 63, true}, {1<<63 + 1, false},
	}
	for _, c := range cases {
		if got := IsPow2(c.v); got != c.want {
			t.Errorf("IsPow2(%d) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestLog2(t *testing.T) {
	for n := uint(0); n < 64; n++ {
		if got := Log2(1 << n); got != n {
			t.Errorf("Log2(1<<%d) = %d, want %d", n, got, n)
		}
	}
}

func TestLog2PanicsOnNonPow2(t *testing.T) {
	for _, v := range []uint64{0, 3, 6, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Log2(%d) did not panic", v)
				}
			}()
			Log2(v)
		}()
	}
}

func TestAlignDown(t *testing.T) {
	cases := []struct {
		a    Addr
		size uint64
		want Addr
	}{
		{0, 8, 0}, {1, 8, 0}, {7, 8, 0}, {8, 8, 8}, {9, 8, 8},
		{0x1234, 16, 0x1230}, {0xffff, 2, 0xfffe}, {100, 1, 100},
	}
	for _, c := range cases {
		if got := AlignDown(c.a, c.size); got != c.want {
			t.Errorf("AlignDown(%v, %d) = %v, want %v", c.a, c.size, got, c.want)
		}
	}
}

func TestOffset(t *testing.T) {
	if got := Offset(0x1234, 16); got != 4 {
		t.Errorf("Offset(0x1234, 16) = %d, want 4", got)
	}
	if got := Offset(0x1230, 16); got != 0 {
		t.Errorf("Offset(0x1230, 16) = %d, want 0", got)
	}
}

// Property: AlignDown(a) <= a < AlignDown(a)+size, and the result is
// aligned.
func TestAlignDownProperties(t *testing.T) {
	f := func(a uint32, shift uint8) bool {
		size := uint64(1) << (shift % 12)
		d := AlignDown(Addr(a), size)
		return uint64(d) <= uint64(a) &&
			uint64(a) < uint64(d)+size &&
			IsAligned(d, size)
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Error(err)
	}
}

// Property: Offset(a, size) == a - AlignDown(a, size).
func TestOffsetProperty(t *testing.T) {
	f := func(a uint32, shift uint8) bool {
		size := uint64(1) << (shift % 12)
		return Offset(Addr(a), size) == uint64(Addr(a)-AlignDown(Addr(a), size))
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Error(err)
	}
}

func TestAddrString(t *testing.T) {
	if got := Addr(0x1a2b).String(); got != "0x1a2b" {
		t.Errorf("String = %q", got)
	}
	if got := Addr(0).String(); got != "0x0" {
		t.Errorf("String(0) = %q", got)
	}
}

func TestIsAligned(t *testing.T) {
	if !IsAligned(0x100, 16) || IsAligned(0x101, 16) {
		t.Error("IsAligned wrong")
	}
}
