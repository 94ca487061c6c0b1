// Benchmarks comparing the one-pass stack engine against the multipass
// family kernel on a realistic Table 7 slice: one stack group per block
// size spanning the paper's three net sizes, driven by a synthetic
// workload trace.  perfbench's traced run reports the same comparison
// per block size (stackdist.block<B>_ns_per_ref against
// multipass.block<B>_ns_per_ref, committed in BENCH_layers.json); run
// these when touching the Access walk.
package stackdist_test

import (
	"testing"

	"subcache/internal/cache"
	"subcache/internal/multipass"
	"subcache/internal/stackdist"
	"subcache/internal/synth"
	"subcache/internal/trace"
)

// benchGroup builds the Table 7 configurations for one block size
// across the given net sizes: demand fetch, every legal sub-block
// size, 4-way (capped) LRU -- exactly the group the sweep harness
// hands to one stack engine.
func benchGroup(block int, nets []int, wordSize int) []cache.Config {
	var cfgs []cache.Config
	for _, net := range nets {
		if block > net {
			continue
		}
		assoc := 4
		if frames := net / block; frames < assoc {
			assoc = frames
		}
		for sub := 32; sub >= 2; sub /= 2 {
			if sub > block || sub < wordSize {
				continue
			}
			cfgs = append(cfgs, cache.Config{
				NetSize:      net,
				BlockSize:    block,
				SubBlockSize: sub,
				Assoc:        assoc,
				WordSize:     wordSize,
				Replacement:  cache.LRU,
				Write:        cache.WriteAllocate,
			})
		}
	}
	return cfgs
}

// benchTrace generates one word-split synthetic workload trace.
func benchTrace(b *testing.B, n int) []trace.Ref {
	b.Helper()
	arch := synth.PDP11
	prof := synth.Workloads(arch)[0]
	src, err := synth.NewWordSource(prof, n, arch.WordSize())
	if err != nil {
		b.Fatalf("NewWordSource: %v", err)
	}
	refs := make([]trace.Ref, 0, n)
	buf := make([]trace.Ref, trace.ChunkRefs)
	for {
		k, err := trace.ReadChunk(src, buf)
		refs = append(refs, buf[:k]...)
		if err != nil {
			return refs
		}
	}
}

var benchBlocks = []int{2, 16, 64}

func BenchmarkEngineAccess(b *testing.B) {
	nets := []int{64, 256, 1024}
	refs := benchTrace(b, 100000)
	for _, block := range benchBlocks {
		cfgs := benchGroup(block, nets, synth.PDP11.WordSize())
		b.Run(sizeName(block), func(b *testing.B) {
			b.SetBytes(int64(len(refs)))
			for i := 0; i < b.N; i++ {
				e, err := stackdist.NewEngine(cfgs, 1, 0)
				if err != nil {
					b.Fatal(err)
				}
				e.AccessBatch(refs)
				e.FlushUsage()
			}
		})
	}
}

// BenchmarkFamilyAccess replays the same trace through the equivalent
// multipass families (one per net size), the baseline the stack engine
// must beat.
func BenchmarkFamilyAccess(b *testing.B) {
	nets := []int{64, 256, 1024}
	refs := benchTrace(b, 100000)
	for _, block := range benchBlocks {
		cfgs := benchGroup(block, nets, synth.PDP11.WordSize())
		byNet := make(map[int][]cache.Config)
		for _, cfg := range cfgs {
			byNet[cfg.NetSize] = append(byNet[cfg.NetSize], cfg)
		}
		b.Run(sizeName(block), func(b *testing.B) {
			b.SetBytes(int64(len(refs)))
			for i := 0; i < b.N; i++ {
				for _, net := range nets {
					if len(byNet[net]) == 0 {
						continue
					}
					f, err := multipass.New(byNet[net])
					if err != nil {
						b.Fatal(err)
					}
					f.AccessBatch(refs)
					f.FlushUsage()
				}
			}
		})
	}
}

func sizeName(block int) string {
	switch block {
	case 2:
		return "block2"
	case 16:
		return "block16"
	default:
		return "block64"
	}
}
