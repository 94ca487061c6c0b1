// Package kernelbench times the access kernels of the two sweep engines
// and of the stack-distance kernel on two extreme reference streams.
// The stack-distance kernel is no sweep engine (sweep.StackDist only
// selects it here); perfbench times it as a comparison until its next
// benchmark change.  perfbench's traced run reports the figures as its
// *.hit_ns and *.miss_ns rows, which the layer record
// (BENCH_layers.json, written by scripts/bench-layers.sh) commits and
// checks against the previous record.
//
//   - hit: a steady-state resident block is referenced word by word --
//     after the first touch every access is a full hit.  For the
//     reference and stack-distance kernels that is the same-block
//     memo's best case; the multipass family has no memo and runs its
//     full four-way probe on every hit.
//   - miss: successive references cycle through more set-mates than the
//     set holds, so once warm every access is a block miss with an
//     eviction -- victim search, retirement and refill on every call.
//
// The geometry is one Table 7 family (1024-byte net, 32-byte block,
// 4-way, LRU, demand fetch, write-allocate) with the block's full
// sub-block ladder as lanes for the single-pass engines, so the figures
// are comparable across engines: reference simulates one configuration
// per call where multipass/stackdist carry four lanes per call.
package kernelbench

import (
	"fmt"
	"time"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/multipass"
	"subcache/internal/stackdist"
	"subcache/internal/sweep"
	"subcache/internal/trace"
)

// Geometry returns the benchmark family: every sub-block size of a
// 32-byte block on a 1024-byte, 4-way, demand-fetch cache.
func Geometry() []cache.Config {
	base := cache.Config{
		NetSize:      1024,
		BlockSize:    32,
		SubBlockSize: 32,
		Assoc:        4,
		WordSize:     2,
		Replacement:  cache.LRU,
		Fetch:        cache.DemandSubBlock,
		Write:        cache.WriteAllocate,
	}
	var cfgs []cache.Config
	for sub := 32; sub >= 2; sub /= 2 {
		c := base
		c.SubBlockSize = sub
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// Streams builds the hit and miss reference chunks for the given
// geometry.
func Streams(cfg cache.Config) (hit, miss []trace.Ref) {
	const n = 8192
	hit = make([]trace.Ref, n)
	miss = make([]trace.Ref, n)
	words := cfg.BlockSize / cfg.WordSize
	for i := 0; i < n; i++ {
		hit[i] = trace.Ref{
			Addr: addr.Addr((i % words) * cfg.WordSize),
			Kind: trace.IFetch,
		}
	}
	// One more distinct block than the set holds, all mapping to set 0:
	// the LRU victim is always the next block referenced, so every
	// access misses.
	setStride := uint64(cfg.NumSets() * cfg.BlockSize)
	conflict := cfg.Assoc + 1
	for i := 0; i < n; i++ {
		miss[i] = trace.Ref{
			Addr: addr.Addr(uint64(i%conflict) * setStride),
			Kind: trace.IFetch,
		}
	}
	return hit, miss
}

// batcher is the common surface of the three kernels.
type batcher interface {
	AccessBatch([]trace.Ref)
}

// Time replays the chunk through the kernel until enough work has
// accumulated for a stable figure, returning ns per access.  A warm-up
// pass fills the cache first so the hit stream measures hits, not cold
// misses.
func Time(k batcher, chunk []trace.Ref) float64 {
	k.AccessBatch(chunk)
	const reps = 64
	start := time.Now()
	for r := 0; r < reps; r++ {
		k.AccessBatch(chunk)
	}
	return time.Since(start).Seconds() * 1e9 / float64(reps*len(chunk))
}

// Bench measures hit and miss ns for the named engine's kernel.
func Bench(eng sweep.Engine) (hitNs, missNs float64, err error) {
	cfgs := Geometry()
	hit, miss := Streams(cfgs[0])
	mk := func() (batcher, error) {
		switch eng {
		case sweep.Reference:
			return cache.New(cfgs[0])
		case sweep.MultiPass:
			return multipass.New(cfgs)
		case sweep.StackDist:
			return stackdist.NewEngine(cfgs, 1, 0)
		}
		return nil, fmt.Errorf("kernel bench: unknown engine %v", eng)
	}
	kh, err := mk()
	if err != nil {
		return 0, 0, err
	}
	km, err := mk()
	if err != nil {
		return 0, 0, err
	}
	return Time(kh, hit), Time(km, miss), nil
}

// Calibrate times a fixed dependent-multiply chain and returns its ns
// per iteration -- a pure core-frequency probe, untouched by cache or
// branch behaviour.  Shared-machine CI clocks swing by 2x between runs;
// dividing a fresh calibration by the baseline's gives the scale factor
// that separates a genuine kernel regression from the machine simply
// running slower today (see scripts/bench-layers.sh).
func Calibrate() float64 {
	const iters = 50_000_000
	s := uint64(1)
	start := time.Now()
	for i := 0; i < iters; i++ {
		s = s*6364136223846793005 + 1442695040888963407
	}
	ns := time.Since(start).Seconds() * 1e9 / iters
	if s == 0 { // keep the chain observable
		return 0
	}
	return ns
}
