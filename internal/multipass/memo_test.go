package multipass

// Differential fuzz for the flat-layout kernel's same-block memoization:
// the memoized batch fast path (AccessBatch, which classifies a repeated
// block with one compare) against a probe-every-reference build -- the
// per-reference Access entry point with both stream memos invalidated
// before every call, so each reference runs the full tag probe.  Every
// lane's statistics must match exactly.  Drawn default-class families
// keep no memo; for them the test compares the record loop run in
// 512-reference pieces with the same loop run one reference at a time.

import (
	"math/rand"
	"reflect"
	"testing"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/trace"
)

func fuzzTrace(r *rand.Rand, n, wordSize int, footprint addr.Addr) []trace.Ref {
	refs := make([]trace.Ref, 0, n)
	pos := addr.Addr(0)
	for len(refs) < n {
		if r.Intn(4) == 0 {
			pos = addr.Addr(r.Int63n(int64(footprint))) &^ addr.Addr(wordSize-1)
		}
		run := 1 + r.Intn(8)
		for i := 0; i < run && len(refs) < n; i++ {
			kind := trace.Read
			switch r.Intn(10) {
			case 0, 1, 2:
				kind = trace.IFetch
			case 3, 4:
				kind = trace.Write
			}
			refs = append(refs, trace.Ref{Addr: pos % footprint, Kind: kind, Size: uint8(wordSize)})
			pos += addr.Addr(wordSize)
		}
	}
	return refs
}

// fuzzFamily draws one family: a shared tag geometry (every replacement
// policy, both multipass-safe write policies, copy-back and warm start
// included) with a ladder of sub-block sizes and fetch policies.
func fuzzFamily(r *rand.Rand) []cache.Config {
	base := cache.Config{
		NetSize:     []int{256, 1024}[r.Intn(2)],
		BlockSize:   []int{8, 32}[r.Intn(2)],
		Assoc:       []int{1, 2, 4, 8}[r.Intn(4)],
		WordSize:    2,
		Replacement: []cache.Replacement{cache.LRU, cache.FIFO, cache.Random}[r.Intn(3)],
		Write:       []cache.WritePolicy{cache.WriteAllocate, cache.WriteIgnore}[r.Intn(2)],
		CopyBack:    r.Intn(2) == 0,
		WarmStart:   r.Intn(4) == 0,
		RandomSeed:  uint64(r.Int63()) | 1,
	}
	var cfgs []cache.Config
	for sub := base.BlockSize; sub >= base.WordSize; sub /= 2 {
		c := base
		c.SubBlockSize = sub
		c.Fetch = []cache.Fetch{cache.DemandSubBlock, cache.LoadForward,
			cache.LoadForwardOptimized, cache.WholeBlock}[r.Intn(4)]
		cfgs = append(cfgs, c)
	}
	return cfgs
}

func TestFamilyMemoDifferentialFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(0xfa111e5))
	for trial := 0; trial < 30; trial++ {
		cfgs := fuzzFamily(r)
		memo, err := New(cfgs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		probe, err := New(cfgs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		refs := fuzzTrace(r, 4000, cfgs[0].WordSize, addr.Addr(4*cfgs[0].NetSize))
		for off := 0; off < len(refs); off += 512 {
			end := off + 512
			if end > len(refs) {
				end = len(refs)
			}
			memo.AccessBatch(refs[off:end])
		}
		for _, ref := range refs {
			// Invalidate both stream memos so every reference runs the
			// full probe loop.
			probe.memoI, probe.memoD = -1, -1
			probe.Access(ref)
		}
		memo.FlushUsage()
		probe.FlushUsage()
		for i := range cfgs {
			if !reflect.DeepEqual(memo.Stats(i), probe.Stats(i)) {
				t.Fatalf("trial %d lane %d (%v): memoized batch stats %+v != probe-every-reference stats %+v",
					trial, i, cfgs[i], *memo.Stats(i), *probe.Stats(i))
			}
		}
	}
}
