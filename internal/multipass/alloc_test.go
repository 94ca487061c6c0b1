package multipass_test

// Allocation regression for the family kernel: the steady-state access
// path (hits, misses, fills across every lane) must never touch the
// heap, or each simulated reference in a sweep pays for it.

import (
	"runtime"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/multipass"
	"subcache/internal/trace"
)

func TestFamilyAccessNoAllocs(t *testing.T) {
	base := cache.Config{NetSize: 256, BlockSize: 32, Assoc: 1, WordSize: 2}
	var cfgs []cache.Config
	for _, sub := range []int{2, 8, 32} {
		c := base
		c.SubBlockSize = sub
		cfgs = append(cfgs, c)
	}
	fam, err := multipass.New(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	conflict := []trace.Ref{
		{Addr: 0x0000, Kind: trace.Read, Size: 2},
		{Addr: 0x0010, Kind: trace.Write, Size: 2},  // write sub-block miss
		{Addr: 0x1000, Kind: trace.IFetch, Size: 2}, // conflicting block miss
		{Addr: 0x1000, Kind: trace.Read, Size: 2},   // hit
	}
	if n := testing.AllocsPerRun(1000, func() {
		for _, r := range conflict {
			fam.Access(r)
		}
	}); n != 0 {
		t.Errorf("family access path allocates %.1f per round, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { fam.AccessBatch(conflict) }); n != 0 {
		t.Errorf("family batch path allocates %.1f per chunk, want 0", n)
	}
}

// TestNewAllocatesNoChunkBuffer: a family's memory is its tag and lane
// state, not trace scratch -- the executor broadcasts packed chunks and
// AccessBatch packs on the stack -- so building any Table 7 family
// allocates less than one packed chunk.
func TestNewAllocatesNoChunkBuffer(t *testing.T) {
	var cfgs []cache.Config
	for _, ws := range []int{2, 4} {
		for _, net := range []int{64, 256, 1024} {
			for block := 64; block >= 2; block /= 2 {
				for sub := block; sub >= ws && sub >= 2; sub /= 2 {
					if block > net || sub > 32 || (block == 64 && sub > 16) {
						continue
					}
					cfgs = append(cfgs, cache.Config{NetSize: net, BlockSize: block, SubBlockSize: sub,
						Assoc: min(4, net/block), WordSize: ws, Write: cache.WriteAllocate})
				}
			}
		}
	}
	families, rest := multipass.Group(cfgs)
	if len(rest) != 0 || len(families) == 0 {
		t.Fatalf("Table 7 grid grouped into %d families and %d fallbacks", len(families), len(rest))
	}
	const limit = trace.ChunkRefs * 8
	for _, idxs := range families {
		fcfgs := make([]cache.Config, len(idxs))
		for j, k := range idxs {
			fcfgs[j] = cfgs[k]
		}
		if n := allocBytes(func() {
			if _, err := multipass.New(fcfgs); err != nil {
				t.Fatal(err)
			}
		}); n >= limit {
			t.Errorf("multipass.New(%v, %d lanes) allocates %d bytes, want < %d", fcfgs[0], len(fcfgs), n, limit)
		}
	}
}

// allocBytes reports the heap bytes one call of f allocates, averaged
// over a few calls on one P, the way testing.AllocsPerRun counts
// allocations.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / runs
}
