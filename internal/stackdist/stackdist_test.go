package stackdist

import (
	"testing"
	"testing/quick"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/rng"
	"subcache/internal/trace"
)

func ref(a addr.Addr) trace.Ref { return trace.Ref{Addr: a, Kind: trace.Read, Size: 2} }

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, false); err == nil {
		t.Error("accepted zero block size")
	}
	if _, err := New(3, 1, false); err == nil {
		t.Error("accepted non-pow2 block size")
	}
	if _, err := New(8, 0, false); err == nil {
		t.Error("accepted zero sets")
	}
	if _, err := New(8, 3, false); err == nil {
		t.Error("accepted non-pow2 sets")
	}
}

func TestDistancesSimple(t *testing.T) {
	p, err := New(8, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// A, B, A, C, B, B
	seq := []addr.Addr{0x00, 0x08, 0x00, 0x10, 0x08, 0x08}
	wantD := []int{-1, -1, 1, -1, 2, 0}
	for i, a := range seq {
		if got := p.Touch(ref(a)); got != wantD[i] {
			t.Errorf("touch %d (%v): distance %d, want %d", i, a, got, wantD[i])
		}
	}
	if p.Total() != 6 || p.Cold() != 3 {
		t.Errorf("total=%d cold=%d", p.Total(), p.Cold())
	}
	hist := p.Histogram()
	if hist[0] != 1 || hist[1] != 1 || hist[2] != 1 {
		t.Errorf("hist = %v", hist)
	}
}

func TestMissesByCapacity(t *testing.T) {
	p, _ := New(8, 1, false)
	for _, a := range []addr.Addr{0x00, 0x08, 0x00, 0x10, 0x08, 0x08} {
		p.Touch(ref(a))
	}
	// capacity 1: hits only distance 0 -> misses = 6-1 = 5
	if got := p.Misses(1); got != 5 {
		t.Errorf("Misses(1) = %d, want 5", got)
	}
	// capacity 2: hits distances 0,1 -> misses 4
	if got := p.Misses(2); got != 4 {
		t.Errorf("Misses(2) = %d, want 4", got)
	}
	// capacity 3: hits 0,1,2 -> only cold misses remain
	if got := p.Misses(3); got != 3 {
		t.Errorf("Misses(3) = %d, want 3", got)
	}
	// capacity 0: everything misses
	if got := p.Misses(0); got != 6 {
		t.Errorf("Misses(0) = %d, want 6", got)
	}
}

func TestWritesExcludedByDefault(t *testing.T) {
	p, _ := New(8, 1, false)
	p.Touch(trace.Ref{Addr: 0, Kind: trace.Write, Size: 2})
	if p.Total() != 0 {
		t.Error("write counted with countWrites=false")
	}
	pw, _ := New(8, 1, true)
	pw.Touch(trace.Ref{Addr: 0, Kind: trace.Write, Size: 2})
	if pw.Total() != 1 {
		t.Error("write not counted with countWrites=true")
	}
}

func TestMissRatioMonotoneInCapacity(t *testing.T) {
	p, _ := New(8, 1, false)
	r := rng.New(5)
	for i := 0; i < 20000; i++ {
		p.Touch(ref(addr.Addr(r.Uint32() & 0xfff)))
	}
	prev := 1.1
	for c := 0; c < 600; c += 7 {
		m := p.MissRatio(c)
		if m > prev+1e-12 {
			t.Fatalf("miss ratio not monotone at capacity %d: %g > %g", c, m, prev)
		}
		prev = m
	}
}

// TestOracleMatchesCacheSimulator is the central cross-validation: a
// fully-associative LRU cache with block == sub-block must take exactly
// the misses the stack-distance oracle predicts, on arbitrary streams.
func TestOracleMatchesCacheSimulator(t *testing.T) {
	const blockSize = 8
	capacities := []int{1, 2, 4, 8, 16}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		refs := make([]trace.Ref, 5000)
		for i := range refs {
			refs[i] = ref(addr.AlignDown(addr.Addr(r.Uint32()&0x3ff), 2))
		}
		p, err := New(blockSize, 1, false)
		if err != nil {
			return false
		}
		for _, rr := range refs {
			p.Touch(rr)
		}
		for _, capBlocks := range capacities {
			c, err := cache.New(cache.Config{
				NetSize: capBlocks * blockSize, BlockSize: blockSize,
				SubBlockSize: blockSize, Assoc: capBlocks, WordSize: 2,
			})
			if err != nil {
				return false
			}
			for _, rr := range refs {
				c.Access(rr)
			}
			if c.Stats().Misses != p.Misses(capBlocks) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(15)); err != nil {
		t.Error(err)
	}
}

// TestSetAssociativeOracle validates the per-set profile against the
// set-associative simulator: with S sets, distance-within-set < A iff a
// hit in an A-way set-associative cache.
func TestSetAssociativeOracle(t *testing.T) {
	const blockSize, numSets = 8, 4
	f := func(seed uint64) bool {
		r := rng.New(seed)
		refs := make([]trace.Ref, 4000)
		for i := range refs {
			refs[i] = ref(addr.AlignDown(addr.Addr(r.Uint32()&0x7ff), 2))
		}
		p, err := New(blockSize, numSets, false)
		if err != nil {
			return false
		}
		for _, rr := range refs {
			p.Touch(rr)
		}
		for _, assoc := range []int{1, 2, 4, 8} {
			c, err := cache.New(cache.Config{
				NetSize: numSets * assoc * blockSize, BlockSize: blockSize,
				SubBlockSize: blockSize, Assoc: assoc, WordSize: 2,
			})
			if err != nil {
				return false
			}
			for _, rr := range refs {
				c.Access(rr)
			}
			if c.Stats().Misses != p.Misses(assoc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(10)); err != nil {
		t.Error(err)
	}
}

func TestRunAndCurve(t *testing.T) {
	p, _ := New(8, 1, false)
	refs := []trace.Ref{ref(0), ref(8), ref(0), ref(8)}
	if err := p.Run(trace.NewSliceSource(refs)); err != nil {
		t.Fatal(err)
	}
	m1, m2 := p.MissRatio(1), p.MissRatio(2)
	if m2 >= m1 {
		t.Errorf("curve not decreasing: %g at 1 block, %g at 2", m1, m2)
	}
	if m2 != 0.5 { // two cold misses out of four
		t.Errorf("miss ratio at 2 blocks = %g, want 0.5", m2)
	}
}

func TestFootprintBlocks(t *testing.T) {
	p, _ := New(8, 1, false)
	for _, a := range []addr.Addr{0, 4, 8, 16, 16} {
		p.Touch(ref(a))
	}
	if got := p.Cold(); got != 3 { // blocks 0, 1, 2
		t.Errorf("footprint = %d, want 3", got)
	}
}

func TestPercentile(t *testing.T) {
	p, _ := New(8, 1, false)
	// 1 cold + 9 hits at distance 0.
	for i := 0; i < 10; i++ {
		p.Touch(ref(0))
	}
	if got := p.Percentile(0.9); got != 1 {
		t.Errorf("Percentile(0.9) = %d, want 1", got)
	}
	if got := p.Percentile(1.0); got != -1 {
		t.Errorf("Percentile(1.0) = %d, want -1 (cold misses uncatchable)", got)
	}
	empty, _ := New(8, 1, false)
	if got := empty.Percentile(0.5); got != -1 {
		t.Errorf("empty Percentile = %d", got)
	}
}
