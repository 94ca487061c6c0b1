// Differential tests: the multipass kernel must be counter-exact
// against the reference simulator.  Every test here drives the same
// seeded reference stream through a multipass.Family and through one
// cache.Cache per lane, then requires the full cache.Stats -- every
// counter and the bus-transaction histogram, not just the ratios -- to
// be identical.
package multipass_test

import (
	"fmt"
	"reflect"
	"testing"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/multipass"
	"subcache/internal/rng"
	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/trace"
)

// makeTrace builds a seeded word trace mixing uniform, temporal,
// sequential and spatial reference patterns, so hits, sub-block misses,
// block misses, evictions and warm-up transitions all occur.
func makeTrace(seed uint64, n int, addrMask uint64, wordSize int) []trace.Ref {
	r := rng.New(seed)
	hot := make([]addr.Addr, 16)
	for i := range hot {
		hot[i] = addr.Addr(r.Uint64() & addrMask)
	}
	refs := make([]trace.Ref, 0, n)
	var seq addr.Addr
	for i := 0; i < n; i++ {
		var a addr.Addr
		switch r.Intn(4) {
		case 0:
			a = addr.Addr(r.Uint64() & addrMask)
		case 1:
			a = hot[r.Intn(len(hot))]
		case 2:
			seq += addr.Addr(wordSize)
			a = seq & addr.Addr(addrMask)
		default:
			a = (hot[r.Intn(len(hot))] + addr.Addr(r.Intn(64))) & addr.Addr(addrMask)
		}
		refs = append(refs, trace.Ref{
			Addr: addr.AlignDown(a, uint64(wordSize)),
			Kind: trace.Kind(r.Intn(3)),
			Size: uint8(wordSize),
		})
	}
	return refs
}

// runReference replays refs through a fresh reference cache.
func runReference(t *testing.T, cfg cache.Config, refs []trace.Ref) *cache.Stats {
	t.Helper()
	c, err := cache.New(cfg)
	if err != nil {
		t.Fatalf("cache.New(%v): %v", cfg, err)
	}
	for _, r := range refs {
		c.Access(r)
	}
	c.FlushUsage()
	return c.Stats()
}

// batchPieces are the uneven chunk lengths the batch entry points are
// driven with, cycled, so piece boundaries fall inside the warm-up,
// across its end and in the steady state.
var batchPieces = []int{1, 7, 512, 8192}

// forPieces calls fn on consecutive pieces of refs cut by batchPieces.
func forPieces(refs []trace.Ref, fn func([]trace.Ref)) {
	for i := 0; len(refs) > 0; i++ {
		n := min(batchPieces[i%len(batchPieces)], len(refs))
		fn(refs[:n])
		refs = refs[n:]
	}
}

// entryPoints drive a family over a trace through each public entry
// point: per-reference Access, AccessBatch in uneven pieces, and
// AccessBatchPacked on the same pieces packed at the family's word size.
var entryPoints = []struct {
	name string
	run  func(*multipass.Family, []trace.Ref)
}{
	{"Access", func(f *multipass.Family, refs []trace.Ref) {
		for _, r := range refs {
			f.Access(r)
		}
	}},
	{"AccessBatch", func(f *multipass.Family, refs []trace.Ref) {
		forPieces(refs, f.AccessBatch)
	}},
	{"AccessBatchPacked", func(f *multipass.Family, refs []trace.Ref) {
		shift := addr.Log2(uint64(f.Config(0).WordSize))
		forPieces(refs, func(p []trace.Ref) {
			packed := make([]uint64, len(p))
			trace.PackRefs(packed, p, shift)
			f.AccessBatchPacked(nil, packed)
		})
	}},
}

// diffFamily runs refs through a family kernel, once per entry point,
// and through per-lane reference caches, and reports any counter
// divergence.
func diffFamily(t *testing.T, cfgs []cache.Config, refs []trace.Ref) {
	t.Helper()
	want := make([]*cache.Stats, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = runReference(t, cfg, refs)
	}
	for _, ep := range entryPoints {
		fam, err := multipass.New(cfgs)
		if err != nil {
			t.Fatalf("multipass.New: %v", err)
		}
		ep.run(fam, refs)
		fam.FlushUsage()
		for i, cfg := range cfgs {
			if got := fam.Stats(i); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%v via %s: multipass diverges from reference on %d refs\n got:  %+v\n want: %+v",
					cfg, ep.name, len(refs), got, want[i])
			}
		}
	}
}

// diffGrouped routes cfgs as the sweep executor does: every family
// Group forms must match the reference through every entry point
// (diffFamily), and every configuration Group leaves to the reference
// simulator must be one New refuses.
func diffGrouped(t *testing.T, cfgs []cache.Config, refs []trace.Ref) {
	t.Helper()
	families, rest := multipass.Group(cfgs)
	for _, idxs := range families {
		fcfgs := make([]cache.Config, len(idxs))
		for j, k := range idxs {
			fcfgs[j] = cfgs[k]
		}
		diffFamily(t, fcfgs, refs)
	}
	for _, k := range rest {
		if _, err := multipass.New([]cache.Config{cfgs[k]}); err == nil {
			t.Errorf("%v: left to the reference simulator, but New accepts it", cfgs[k])
		}
	}
}

// demandLanes gives base's family one demand-fetch lane per sub-block
// size.
func demandLanes(base cache.Config, subs []int) []cache.Config {
	cfgs := make([]cache.Config, len(subs))
	for i, sub := range subs {
		cfgs[i] = base
		cfgs[i].SubBlockSize = sub
	}
	return cfgs
}

// fetchLanes expands one (net, block) family into every (sub, fetch)
// lane the sweep grid could ask for: demand fetch at every sub-block
// size plus the load-forward and whole-block variants where sub < block.
func fetchLanes(base cache.Config, subs []int) []cache.Config {
	var cfgs []cache.Config
	for _, sub := range subs {
		c := base
		c.SubBlockSize = sub
		cfgs = append(cfgs, c)
		if sub < base.BlockSize {
			for _, f := range []cache.Fetch{cache.LoadForward, cache.LoadForwardOptimized, cache.WholeBlock} {
				cf := c
				cf.Fetch = f
				cfgs = append(cfgs, cf)
			}
		}
	}
	return cfgs
}

// TestDiffGridFamilies groups the paper's Table 1 grid into families
// exactly as the sweep's MultiPass engine does and differentially tests
// every family of every architecture: 2-byte and 4-byte data paths,
// with and without the Z8000's warm start.
func TestDiffGridFamilies(t *testing.T) {
	for _, arch := range synth.AllArchs() {
		arch := arch
		ws := arch.WordSize()
		refs := makeTrace(0xd1ff+uint64(ws), 6000, 0xffff, ws)
		pts := sweep.Grid([]int{64, 256}, ws)
		type famKey struct{ net, block int }
		fams := map[famKey][]cache.Config{}
		var order []famKey
		for _, p := range pts {
			cfg := p.Config(arch)
			k := famKey{p.Net, p.Block}
			if _, ok := fams[k]; !ok {
				order = append(order, k)
			}
			fams[k] = append(fams[k], cfg)
		}
		for _, k := range order {
			k, cfgs := k, fams[k]
			t.Run(fmt.Sprintf("%s/net%d/block%d", arch, k.net, k.block), func(t *testing.T) {
				diffFamily(t, cfgs, refs)
			})
		}
	}
}

// TestDiffPolicyMatrix routes one representative family, with
// fetch-policy lanes mixed in, under every combination of write policy,
// memory-update mode, replacement policy and warm-start accounting that
// keeps tag dynamics independent of sub-block state (diffGrouped): the
// demand lanes of the LRU write-allocate write-through combinations run
// as a family, and everything else must be refused by New.
func TestDiffPolicyMatrix(t *testing.T) {
	base := cache.Config{
		NetSize: 256, BlockSize: 32, Assoc: 4, WordSize: 2,
		SubBlockSize: 32, // per-lane below
	}
	var seed uint64 = 1984
	for _, write := range []cache.WritePolicy{cache.WriteAllocate, cache.WriteIgnore} {
		for _, copyBack := range []bool{false, true} {
			for _, repl := range []cache.Replacement{cache.LRU, cache.FIFO, cache.Random} {
				for _, warm := range []bool{false, true} {
					write, copyBack, repl, warm := write, copyBack, repl, warm
					seed++
					traceSeed := seed
					name := fmt.Sprintf("%v/%v/copyback=%v/warm=%v", write, repl, copyBack, warm)
					t.Run(name, func(t *testing.T) {
						b := base
						b.Write = write
						b.CopyBack = copyBack
						b.Replacement = repl
						b.RandomSeed = 7
						b.WarmStart = warm
						cfgs := fetchLanes(b, []int{2, 4, 8, 16, 32})
						refs := makeTrace(traceSeed, 4000, 0x3fff, 2)
						diffGrouped(t, cfgs, refs)
					})
				}
			}
		}
	}
}

// TestDiffTinyAndFullyAssociative routes the geometry extremes
// (diffGrouped): a direct-mapped family, a fully-associative
// (360/85-style sector) cache, whose eight ways New refuses, and a
// single-set cache where every access contends.
func TestDiffTinyAndFullyAssociative(t *testing.T) {
	cases := []struct {
		name string
		base cache.Config
		subs []int
	}{
		{"direct-mapped", cache.Config{NetSize: 128, BlockSize: 16, Assoc: 1, WordSize: 2}, []int{2, 4, 8, 16}},
		{"fully-assoc", cache.Config{NetSize: 512, BlockSize: 64, Assoc: 8, WordSize: 4}, []int{4, 8, 16, 32, 64}},
		{"single-set", cache.Config{NetSize: 64, BlockSize: 32, Assoc: 2, WordSize: 2}, []int{2, 8, 32}},
	}
	for i, tc := range cases {
		tc, i := tc, i
		t.Run(tc.name, func(t *testing.T) {
			refs := makeTrace(0xace0+uint64(i), 5000, 0x1fff, tc.base.WordSize)
			diffGrouped(t, fetchLanes(tc.base, tc.subs), refs)
		})
	}
}

// TestDiffWarmupUnfinished: a trace shorter than the 512 frames of a
// 1024-byte, 2-byte-block Z8000 cache never finishes the warm-up, so
// every count stays in the warm-up and write fields, through every
// family entry point and through a bundle of one.
func TestDiffWarmupUnfinished(t *testing.T) {
	cfg := sweep.Point{Net: 1024, Block: 2, Sub: 2}.Config(synth.Z8000)
	refs := makeTrace(0x5a, 400, 0xffff, cfg.WordSize)
	diffFamily(t, []cache.Config{cfg}, refs)
	diffBundle(t, [][]cache.Config{{cfg}}, refs)
	if st := runReference(t, cfg, refs); st.Accesses != 0 || st.WarmupAccesses == 0 {
		t.Fatalf("%d refs finished the warm-up of %v: %+v", len(refs), cfg, st)
	}
}

// TestDiffSixtyFourBitLanes: families using the valid word's full
// width -- one lane of 64 sub-blocks (128-byte blocks of 2-byte
// sub-blocks and words, so its mask is 1<<64 - 1) and seven lanes of
// 64-byte blocks filling exactly 64 bits -- with and without the warm
// start.  Behind a seeded trace, each family's first block is swept
// word by word and evicted with every bit set, and its last is swept
// and left resident.
func TestDiffSixtyFourBitLanes(t *testing.T) {
	families := []struct {
		name string
		cfgs []cache.Config
	}{
		{"one-lane", []cache.Config{{NetSize: 1024, BlockSize: 128, SubBlockSize: 2, Assoc: 4, WordSize: 2}}},
		{"seven-lanes", demandLanes(cache.Config{NetSize: 512, BlockSize: 64, Assoc: 4, WordSize: 2}, []int{2, 4, 8, 16, 32, 64, 64})},
	}
	for _, fam := range families {
		for _, warm := range []bool{false, true} {
			cfgs := append([]cache.Config(nil), fam.cfgs...)
			for i := range cfgs {
				cfgs[i].WarmStart = warm
			}
			base := cfgs[0]
			t.Run(fmt.Sprintf("%s/warm=%v", fam.name, warm), func(t *testing.T) {
				refs := makeTrace(0x64, 3000, 0x3fff, 2)
				// Blocks a set stride apart share a set: sweep the first,
				// evict it through Assoc set-mates, then sweep the last.
				stride := base.NumSets() * base.BlockSize
				sweepBlock := func(b int) {
					for off := 0; off < base.BlockSize; off += 2 {
						refs = append(refs, trace.Ref{Addr: addr.Addr(b*stride + off), Kind: trace.Kind(off / 2 % 3), Size: 2})
					}
				}
				sweepBlock(0)
				for b := 1; b <= base.Assoc; b++ {
					refs = append(refs, trace.Ref{Addr: addr.Addr(b * stride), Kind: trace.Read, Size: 2})
				}
				sweepBlock(base.Assoc + 1)
				diffFamily(t, cfgs, refs)
			})
		}
	}
}

// TestDiffWarmupEndsAtPieceBoundary: a Z8000 family's warm-up ends at
// the 255th, 256th and 257th reference -- one before, at and one after
// the batch loop's 256-reference piece boundary -- and a seeded trace
// follows, through every family entry point and through a bundle of
// one.  Reference 0 fills a frame, the next end - frames references hit
// its block (every fifth a write to a new word), and each of the rest
// fills one more frame.
func TestDiffWarmupEndsAtPieceBoundary(t *testing.T) {
	base := sweep.Point{Net: 2048, Block: 16, Sub: 16}.Config(synth.Z8000)
	cfgs := demandLanes(base, []int{16, 8, 4, 2})
	frames := base.NumFrames()
	for _, end := range []int{255, 256, 257} {
		t.Run(fmt.Sprintf("end=%d", end), func(t *testing.T) {
			refs := []trace.Ref{{Addr: 0, Kind: trace.IFetch, Size: 2}}
			writes := 0
			for i := 1; i <= end-frames; i++ {
				kind := trace.Kind(i % 2)
				if i%5 == 0 {
					kind = trace.Write
					writes++
				}
				refs = append(refs, trace.Ref{Addr: addr.Addr(i * 2 % base.BlockSize), Kind: kind, Size: 2})
			}
			for b := 1; b < frames; b++ {
				refs = append(refs, trace.Ref{Addr: addr.Addr(b * base.BlockSize), Kind: trace.Read, Size: 2})
			}
			if st := runReference(t, base, refs); st.WarmupAccesses != uint64(end-writes) || st.Accesses != 0 {
				t.Fatalf("the first %d references do not end the warm-up of %v: %+v", end, base, st)
			}
			refs = append(refs, makeTrace(uint64(end), 2000, 0xffff, 2)...)
			diffFamily(t, cfgs, refs)
			diffBundle(t, [][]cache.Config{cfgs}, refs)
		})
	}
}

// TestNewRejectsIneligible: configurations outside the kernel's class,
// families that mix keys or need more than 64 lane bits, and invalid
// geometry must be refused up front.
func TestNewRejectsIneligible(t *testing.T) {
	ok := cache.Config{NetSize: 256, BlockSize: 16, SubBlockSize: 8, Assoc: 4, WordSize: 2}
	if _, err := multipass.New([]cache.Config{ok}); err != nil {
		t.Fatalf("eligible config rejected: %v", err)
	}
	refused := []struct {
		name   string
		mutate func(*cache.Config)
	}{
		{"prefetch", func(c *cache.Config) { c.PrefetchOBL = true }},
		{"write-no-allocate", func(c *cache.Config) { c.Write = cache.WriteNoAllocate }},
		{"write-ignore", func(c *cache.Config) { c.Write = cache.WriteIgnore }},
		{"copy-back", func(c *cache.Config) { c.CopyBack = true }},
		{"FIFO", func(c *cache.Config) { c.Replacement = cache.FIFO }},
		{"Random", func(c *cache.Config) { c.Replacement = cache.Random }},
		{"8-way", func(c *cache.Config) { c.Assoc = 8 }},
		{"load-forward", func(c *cache.Config) { c.Fetch = cache.LoadForward }},
		{"load-forward-opt", func(c *cache.Config) { c.Fetch = cache.LoadForwardOptimized }},
		{"whole-block", func(c *cache.Config) { c.Fetch = cache.WholeBlock }},
		{"invalid geometry", func(c *cache.Config) { c.SubBlockSize = 3 }},
	}
	for _, tc := range refused {
		cfg := ok
		tc.mutate(&cfg)
		if _, err := multipass.New([]cache.Config{cfg}); err == nil {
			t.Errorf("%s config %v accepted", tc.name, cfg)
		}
	}
	otherFamily := ok
	otherFamily.BlockSize = 32
	otherFamily.SubBlockSize = 32
	if _, err := multipass.New([]cache.Config{ok, otherFamily}); err == nil {
		t.Error("mixed (net,block) families accepted")
	}
	// 64-byte blocks of 2-byte words: lanes of 32, 32 and 16 sub-blocks.
	wide := demandLanes(cache.Config{NetSize: 256, BlockSize: 64, Assoc: 4, WordSize: 2}, []int{2, 2, 4})
	if _, err := multipass.New(wide[:2]); err != nil {
		t.Errorf("family of 64 lane bits rejected: %v", err)
	}
	if _, err := multipass.New(wide); err == nil {
		t.Error("family of 80 lane bits accepted")
	}
	if _, err := multipass.New(nil); err == nil {
		t.Error("empty family accepted")
	}
}

// TestLaneAccessors: lanes preserve input order and expose their
// configurations.
func TestLaneAccessors(t *testing.T) {
	base := cache.Config{NetSize: 128, BlockSize: 16, Assoc: 2, WordSize: 2}
	cfgs := demandLanes(base, []int{16, 2, 8, 4})
	fam, err := multipass.New(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if fam.Lanes() != len(cfgs) {
		t.Fatalf("Lanes() = %d, want %d", fam.Lanes(), len(cfgs))
	}
	for i, cfg := range cfgs {
		if fam.Config(i) != cfg {
			t.Errorf("Config(%d) = %v, want %v", i, fam.Config(i), cfg)
		}
	}
}
