// Differential tests of the bundle: families folded together must stay
// counter-exact against one reference simulator per lane, and cost no
// heap on their batch path.
package multipass_test

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/multipass"
	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/trace"
)

// diffBundle feeds refs, packed at the families' word size in pieces
// cut by batchPieces, to a bundle of the given families and to one
// reference cache per lane, and reports any counter divergence.
func diffBundle(t *testing.T, families [][]cache.Config, refs []trace.Ref) {
	t.Helper()
	b, err := multipass.NewBundle(families)
	if err != nil {
		t.Fatalf("multipass.NewBundle: %v", err)
	}
	shift := addr.Log2(uint64(families[0][0].WordSize))
	forPieces(refs, func(p []trace.Ref) {
		packed := make([]uint64, len(p))
		trace.PackRefs(packed, p, shift)
		b.AccessBatchPacked(packed)
	})
	b.FlushUsage()
	for fi, cfgs := range families {
		fam := b.Families()[fi]
		for i, cfg := range cfgs {
			want := runReference(t, cfg, refs)
			if got := fam.Stats(i); !reflect.DeepEqual(got, want) {
				t.Errorf("%v in a bundle of %d families: diverges from reference on %d refs\n got:  %+v\n want: %+v",
					cfg, len(families), len(refs), got, want)
			}
		}
	}
}

// table7Bundles groups an architecture's Table 7 grid over nets 64, 256
// and 1024 into one bundle per block size -- its families are the nets
// of that block size -- with every configuration's warm start set to
// warm.
func table7Bundles(arch synth.Arch, warm bool) [][][]cache.Config {
	byBlock := map[int]map[int][]cache.Config{}
	var blocks []int
	for _, p := range sweep.Grid([]int{64, 256, 1024}, arch.WordSize()) {
		if byBlock[p.Block] == nil {
			byBlock[p.Block] = map[int][]cache.Config{}
			blocks = append(blocks, p.Block)
		}
		cfg := p.Config(arch)
		cfg.WarmStart = warm
		byBlock[p.Block][p.Net] = append(byBlock[p.Block][p.Net], cfg)
	}
	var out [][][]cache.Config
	for _, block := range blocks {
		var fams [][]cache.Config
		for _, net := range []int{64, 256, 1024} {
			if cfgs := byBlock[block][net]; cfgs != nil {
				fams = append(fams, cfgs)
			}
		}
		out = append(out, fams)
	}
	return out
}

// workloadTrace is the first n references of arch's first suite
// workload, split into words: real runs of sequential instruction
// fetches and clustered data, where a seeded makeTrace has short runs.
func workloadTrace(t testing.TB, arch synth.Arch, n int) []trace.Ref {
	t.Helper()
	packed := workloadWords(t, synth.Workloads(arch)[0], n, arch.WordSize())
	refs := make([]trace.Ref, len(packed))
	trace.UnpackRefs(refs, packed, addr.Log2(uint64(arch.WordSize())))
	return refs
}

// workloadWords is profile prof's packed word stream over n references.
func workloadWords(t testing.TB, prof synth.Profile, n, wordSize int) []uint64 {
	t.Helper()
	src, err := synth.NewWordSource(prof, n, wordSize)
	if err != nil {
		t.Fatal(err)
	}
	var words []uint64
	buf := make([]uint64, trace.ChunkRefs)
	for {
		k, err := src.ReadPacked(buf)
		words = append(words, buf[:k]...)
		if err == io.EOF {
			return words
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiffBundleTable7: every architecture's Table 7 block sizes over
// nets 64, 256 and 1024, as bundles of their nets, with and without
// warm start, on a seeded trace and on a suite workload.  With warm
// start the net-64 families leave the warm-up long before the net-256
// ones and those before the net-1024 ones, so one fold of a piece serves
// one family or two while the rest fold their own warm-up pieces; the
// test requires both to happen.
func TestDiffBundleTable7(t *testing.T) {
	for _, arch := range synth.AllArchs() {
		ws := arch.WordSize()
		traces := map[string][]trace.Ref{
			"seeded":   makeTrace(0xb0d1e+uint64(ws), 20000, 0xffff, ws),
			"workload": workloadTrace(t, arch, 20000),
		}
		for _, warm := range []bool{false, true} {
			for name, refs := range traces {
				for _, fams := range table7Bundles(arch, warm) {
					cfg := fams[0][0]
					t.Run(fmt.Sprintf("%s/%s/warm=%v/block%d", arch, name, warm, cfg.BlockSize), func(t *testing.T) {
						diffBundle(t, fams, refs)
					})
				}
			}
		}
	}
	// The warm-up overlap: on the Z8000 workload trace each family of
	// 2-byte blocks counts more than two pieces of warm-up accesses
	// beyond the next smaller net's, so at least one whole piece folds
	// for net 64 alone while nets 256 and 1024 warm up, and one for nets
	// 64 and 256 while net 1024 warms up.
	refs := workloadTrace(t, synth.Z8000, 20000)
	var warmup [3]uint64
	for i, net := range []int{64, 256, 1024} {
		cfg := sweep.Point{Net: net, Block: 2, Sub: 2}.Config(synth.Z8000)
		cfg.WarmStart = true
		warmup[i] = runReference(t, cfg, refs).WarmupAccesses
	}
	if warmup[1] < warmup[0]+2*256 || warmup[2] < warmup[1]+2*256 {
		t.Errorf("warm-up accesses of nets 64, 256, 1024 = %v: a warm-up overlap spans no whole piece", warmup)
	}
}

// TestDiffBundleWriteOrder: within one block, every sequence of three
// references over four word offsets and the three kinds -- so a write
// after a read of another sub-block, a read after a write, a write
// after a write of the same or another sub-block, and a run opened by a
// write block miss -- each after a prior run that left the block
// resident with one word's sub-block loaded, or after the block's
// eviction, with and without warm start.  Every block of the patterns
// maps to set 0 of both nets, so two references to odd blocks come
// first: with warm start the net-64 family's warm-up then ends in the
// first pattern, and the patterns run folded for it while the net-256
// family, half of whose sets stay empty, folds its own warm-up pieces.
func TestDiffBundleWriteOrder(t *testing.T) {
	for _, warm := range []bool{false, true} {
		base := cache.Config{NetSize: 64, BlockSize: 16, Assoc: 2, WordSize: 2, WarmStart: warm}
		small := demandLanes(base, []int{16, 8, 4, 2})
		base.NetSize = 256
		large := demandLanes(base, []int{16, 8, 4, 2})
		stride := addr.Addr(base.NetSize) // a set stride of both nets
		words := []addr.Addr{0, 2, 6, 12}
		kinds := []trace.Kind{trace.IFetch, trace.Read, trace.Write}
		var refs []trace.Ref
		ref := func(a addr.Addr, k trace.Kind) {
			refs = append(refs, trace.Ref{Addr: a, Kind: k, Size: 2})
		}
		ref(16, trace.Read)
		ref(48, trace.Read)
		for evict := 0; evict < 2; evict++ {
			for _, prior := range words {
				for _, a := range words {
					for _, ka := range kinds {
						for _, b := range words {
							for _, kb := range kinds {
								for _, c := range words {
									for _, kc := range kinds {
										ref(prior, trace.Read)
										// Another block between the runs; with
										// evict, enough set-mates to evict it.
										for i := 0; i <= evict*4; i++ {
											ref(stride*addr.Addr(i+1), trace.Read)
										}
										ref(a, ka)
										ref(b, kb)
										ref(c, kc)
										ref(stride*9+4, trace.IFetch)
									}
								}
							}
						}
					}
				}
			}
		}
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			diffBundle(t, [][]cache.Config{small, large}, refs)
		})
	}
}

// TestDiffBundleRunSpansPieces: a run of one block spans the record
// loop's piece boundary inside a batch (reference 264: diffBundle's
// first calls carry 1, 7 and 512 references, and the bundle cuts the
// 512 at 256) and the boundary between two calls (reference 520), with
// writes before and after each boundary to sub-blocks both loaded and
// not yet loaded.
func TestDiffBundleRunSpansPieces(t *testing.T) {
	base := cache.Config{NetSize: 256, BlockSize: 32, Assoc: 4, WordSize: 2}
	fams := [][]cache.Config{
		demandLanes(base, []int{32, 16, 8, 4, 2}),
		demandLanes(cache.Config{NetSize: 1024, BlockSize: 32, Assoc: 4, WordSize: 2}, []int{32, 16, 8, 4, 2}),
	}
	seeded := makeTrace(0x264, 4000, 0x3fff, 2)
	var refs []trace.Ref
	block := addr.Addr(0x8000)
	for _, span := range [][2]int{{240, 290}, {505, 535}} {
		refs = append(refs, seeded[len(refs):span[0]]...)
		for i := span[0]; i < span[1]; i++ {
			kind := trace.Read
			if i%3 == 0 {
				kind = trace.Write
			}
			refs = append(refs, trace.Ref{Addr: block + addr.Addr(i*6%32), Kind: kind, Size: 2})
		}
		block += 0x1000
	}
	refs = append(refs, seeded[len(refs):]...)
	diffBundle(t, fams, refs)
}

// TestNewBundleRejectsMismatch: the families of a bundle must share the
// block size, the word size and the lane layout.
func TestNewBundleRejectsMismatch(t *testing.T) {
	base := cache.Config{NetSize: 256, BlockSize: 16, Assoc: 4, WordSize: 2}
	lanes := demandLanes(base, []int{16, 8, 4})
	other := func(mutate func(*cache.Config)) []cache.Config {
		out := append([]cache.Config(nil), lanes...)
		for i := range out {
			mutate(&out[i])
		}
		return out
	}
	if _, err := multipass.NewBundle([][]cache.Config{lanes, other(func(c *cache.Config) { c.NetSize = 64 })}); err != nil {
		t.Errorf("nets of one block size refused: %v", err)
	}
	for name, fam := range map[string][]cache.Config{
		"block size":  other(func(c *cache.Config) { c.BlockSize, c.NetSize = 32, 512 }),
		"word size":   other(func(c *cache.Config) { c.WordSize = 4; c.SubBlockSize = max(c.SubBlockSize, 4) }),
		"lane layout": demandLanes(base, []int{16, 4, 8}),
	} {
		if _, err := multipass.NewBundle([][]cache.Config{lanes, fam}); err == nil {
			t.Errorf("families differing in %s bundled", name)
		}
	}
	if _, err := multipass.NewBundle(nil); err == nil {
		t.Error("empty bundle accepted")
	}
}

// TestBundleAccessNoAllocs: the bundle's batch entry point keeps the
// fold's runs and the loop's records on its stack, in the warm-up and
// past it.
func TestBundleAccessNoAllocs(t *testing.T) {
	fams := table7Bundles(synth.Z8000, true)[2] // 16-byte blocks
	b, err := multipass.NewBundle(fams)
	if err != nil {
		t.Fatal(err)
	}
	refs := makeTrace(0xa110c, 3*256+17, 0xffff, 2)
	packed := make([]uint64, len(refs))
	trace.PackRefs(packed, refs, 1)
	if n := testing.AllocsPerRun(100, func() { b.AccessBatchPacked(packed) }); n != 0 {
		t.Errorf("bundle batch path allocates %.1f per chunk, want 0", n)
	}
}

// BenchmarkTable7Bundles times each architecture's Table 7 families
// (nets 64, 256 and 1024) over its suite at 100,000 references, fed in
// 8192-word chunks as the sweep executor feeds them, in two modes:
// family by family, as multipass.New units that each fold every piece
// alone, and as the executor's bundles (multipass.PartitionShards on
// one shard), which fold each piece once per block size.  Every
// iteration runs both modes, alternating which goes first, and times
// each on the thread's CPU clock with the goroutine locked to its OS
// thread (wall time off Linux), so that steal and waiting on a shared
// host stay out of the figures.  It reports each mode's ns per word
// reference (families-cpu-ns/word, bundles-cpu-ns/word) and, per block
// size, the trace's references per same-block run (refsPerRun), the
// locality the fold turns into fewer probes.  The trace is generated
// and the units are built off the clock.
//
//	go test -run='^$' -bench=Table7Bundles -benchtime=10x ./internal/multipass
func BenchmarkTable7Bundles(b *testing.B) {
	for _, arch := range synth.AllArchs() {
		ws := arch.WordSize()
		var cfgs []cache.Config
		for _, p := range sweep.Grid([]int{64, 256, 1024}, ws) {
			cfgs = append(cfgs, p.Config(arch))
		}
		plan := multipass.PartitionShards(cfgs, 1)[0]
		var traces [][]uint64
		words := 0
		for _, prof := range synth.Workloads(arch) {
			traces = append(traces, workloadWords(b, prof, 100000, ws))
			words += len(traces[len(traces)-1])
		}
		// units builds one mode's access functions, bundles or families.
		units := func(b *testing.B, bundled bool) []func([]uint64) {
			var access []func([]uint64)
			for _, bundle := range plan.Bundles {
				var fams [][]cache.Config
				for _, idxs := range bundle {
					fams = append(fams, pick(cfgs, idxs))
				}
				if bundled {
					bu, err := multipass.NewBundle(fams)
					if err != nil {
						b.Fatal(err)
					}
					access = append(access, bu.AccessBatchPacked)
					continue
				}
				for _, fc := range fams {
					f, err := multipass.New(fc)
					if err != nil {
						b.Fatal(err)
					}
					access = append(access, func(p []uint64) { f.AccessBatchPacked(nil, p) })
				}
			}
			return access
		}
		// feed drives one mode's units over every trace and returns the
		// thread clock time it took.
		feed := func(b *testing.B, access []func([]uint64)) time.Duration {
			t0, err := threadClock()
			if err != nil {
				b.Fatal(err)
			}
			for _, packed := range traces {
				for len(packed) > 0 {
					n := min(len(packed), trace.ChunkRefs)
					for _, fn := range access {
						fn(packed[:n])
					}
					packed = packed[n:]
				}
			}
			t1, err := threadClock()
			if err != nil {
				b.Fatal(err)
			}
			return t1 - t0
		}
		b.Run(arch.String(), func(b *testing.B) {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			var families, bundles time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs, bs := units(b, false), units(b, true)
				b.StartTimer()
				if i%2 == 0 {
					families += feed(b, fs)
					bundles += feed(b, bs)
				} else {
					bundles += feed(b, bs)
					families += feed(b, fs)
				}
			}
			b.ReportMetric(float64(families)/float64(b.N*words), "families-"+clockName+"-ns/word")
			b.ReportMetric(float64(bundles)/float64(b.N*words), "bundles-"+clockName+"-ns/word")
			for _, bundle := range plan.Bundles {
				block := cfgs[bundle[0][0]].BlockSize
				b.ReportMetric(refsPerRun(traces, block, ws), fmt.Sprintf("refs/run-block%d", block))
			}
		})
	}
}

// refsPerRun is the mean length of the same-block runs of blocks of the
// given size in packed word traces at word size ws, each cut into the
// batch loop's 256-reference pieces as 8192-word chunks cut it.  It
// reads the words only, not the kernel.
func refsPerRun(traces [][]uint64, block, ws int) float64 {
	shift := 2 + addr.Log2(uint64(block/ws))
	refs, runs := 0, 0
	for _, words := range traces {
		for i, v := range words {
			if i%256 == 0 || v>>shift != words[i-1]>>shift {
				runs++
			}
		}
		refs += len(words)
	}
	return float64(refs) / float64(runs)
}

// pick returns the configurations at idxs.
func pick(cfgs []cache.Config, idxs []int) []cache.Config {
	out := make([]cache.Config, len(idxs))
	for j, k := range idxs {
		out[j] = cfgs[k]
	}
	return out
}
