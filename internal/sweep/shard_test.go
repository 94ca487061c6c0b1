package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/metrics"
	"subcache/internal/synth"
	"subcache/internal/trace"
)

// TestShardedDifferential: the chunk-broadcast executor must reproduce
// an oracle that does not use it -- RunOne, one cache.Cache fed straight
// from the generator per (workload, point) -- bit for bit, every run
// and every summary, for both engines at every shard count, because
// sharding partitions configurations, never the trace.  It covers the
// whole Table 7 grid of every architecture: the 4-byte words of the
// VAX-11 and System/370, the Z8000 warm start and net 1024.  PDP-11
// runs every shard setting; the other architectures run shards 1 and
// NumCPU, which keeps the race-detector run short.
func TestShardedDifferential(t *testing.T) {
	const refs = 20000
	type oracle struct {
		pts    []Point
		passes int // trace passes of a single-pass engine
		runs   map[Point][]metrics.Run
	}
	want := make(map[synth.Arch]oracle)
	for _, a := range synth.AllArchs() {
		o := oracle{pts: Grid([]int{64, 256, 1024}, a.WordSize()), runs: make(map[Point][]metrics.Run)}
		for _, prof := range synth.Workloads(a) {
			o.passes++
			for _, p := range o.pts {
				run, err := RunOne(prof, p.Config(a), refs)
				if err != nil {
					t.Fatal(err)
				}
				o.runs[p] = append(o.runs[p], run)
			}
		}
		want[a] = o
	}

	for _, eng := range []Engine{Reference, MultiPass} {
		for _, sc := range []struct {
			name     string
			shards   int
			allArchs bool
		}{{"auto", 0, false}, {"shards=1", 1, true}, {"shards=2", 2, false}, {"shards=3", 3, false}, {"shards=ncpu", runtime.NumCPU(), true}} {
			t.Run(eng.String()+"/"+sc.name, func(t *testing.T) {
				for _, a := range synth.AllArchs() {
					if a != synth.PDP11 && !sc.allArchs {
						continue
					}
					o := want[a]
					got, err := Run(Request{Arch: a, Points: o.pts, Refs: refs, Engine: eng, Shards: sc.shards})
					if err != nil {
						t.Fatalf("%v: %v", a, err)
					}
					passes := o.passes
					if eng == Reference {
						passes *= len(o.pts)
					}
					if got.TracePasses != passes {
						t.Errorf("%v: TracePasses = %d, want %d", a, got.TracePasses, passes)
					}
					for _, p := range o.pts {
						if !reflect.DeepEqual(got.Runs[p], o.runs[p]) {
							t.Fatalf("%v %v: runs differ from per-point RunOne\n got:  %v\n want: %v",
								a, p, got.Runs[p], o.runs[p])
						}
						if got.Summaries[p] != metrics.Average(o.runs[p]) {
							t.Errorf("%v %v: summaries differ", a, p)
						}
					}
				}
			})
		}
	}
}

// TestShardedDecodePaths: the executor broadcasts packed words only,
// so every path that reads them -- the family kernel's warm-up across
// chunk boundaries and the shard-side decode for reference caches,
// alone or hosted beside families -- must still match the RunOne oracle
// bit for bit, for both engines at one and two shards.
func TestShardedDecodePaths(t *testing.T) {
	var twoPlane []Point
	for _, sub := range []int{16, 8, 4, 2} {
		twoPlane = append(twoPlane,
			Point{Net: 1024, Block: 64, Sub: sub},
			Point{Net: 1024, Block: 64, Sub: sub, Fetch: cache.LoadForward})
	}
	cases := []struct {
		name string
		req  Request
	}{
		// Z8000 warm start: on the 4096-byte cache the warm-up phase
		// crosses chunk boundaries.
		{"z8000-warmup", Request{Arch: synth.Z8000, Refs: 3*trace.ChunkRefs + 123,
			Points: []Point{{Net: 64, Block: 8, Sub: 2}, {Net: 1024, Block: 16, Sub: 4}, {Net: 1024, Block: 16, Sub: 16}, {Net: 4096, Block: 32, Sub: 8}}}},
		// Eight ways are outside the family kernel's class: every
		// point runs on a reference cache.
		{"lru-8way", Request{Arch: synth.PDP11, Refs: 2*trace.ChunkRefs + 7,
			Points:   []Point{{Net: 256, Block: 8, Sub: 2}, {Net: 256, Block: 8, Sub: 8}, {Net: 1024, Block: 16, Sub: 4}, {Net: 1024, Block: 16, Sub: 16}},
			Override: func(c *cache.Config) { c.Assoc = 8 }}},
		// 64-byte blocks at every sub-block size: the demand lanes
		// form one family, and the load-forward points run on
		// reference caches beside it.
		{"two-plane", Request{Arch: synth.PDP11, Refs: 2*trace.ChunkRefs + 7, Points: twoPlane}},
		// OBL prefetch on the 2-byte sub-blocks only: those points
		// fall back to reference caches beside the families.
		{"families-and-fallbacks", Request{Arch: synth.PDP11, Refs: 2*trace.ChunkRefs + 7,
			Points: []Point{{Net: 256, Block: 8, Sub: 2}, {Net: 256, Block: 8, Sub: 4}, {Net: 256, Block: 8, Sub: 8}, {Net: 64, Block: 16, Sub: 2}, {Net: 64, Block: 16, Sub: 8}},
			Override: func(c *cache.Config) {
				if c.SubBlockSize == 2 {
					c.PrefetchOBL = true
				}
			}}},
	}
	for _, tc := range cases {
		profs := synth.Workloads(tc.req.Arch)[:2]
		tc.req.Workloads = []string{profs[0].Name, profs[1].Name}
		want := make(map[Point][]metrics.Run)
		for _, p := range tc.req.Points {
			for _, prof := range profs {
				run, err := RunOne(prof, pointConfig(p, tc.req), tc.req.Refs)
				if err != nil {
					t.Fatal(err)
				}
				want[p] = append(want[p], run)
			}
		}
		for _, eng := range []Engine{Reference, MultiPass} {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%v/shards=%d", tc.name, eng, shards), func(t *testing.T) {
					req := tc.req
					req.Engine = eng
					req.Shards = shards
					got, err := Run(req)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range req.Points {
						if !reflect.DeepEqual(got.Runs[p], want[p]) {
							t.Fatalf("%v: runs differ from per-point RunOne\n got:  %v\n want: %v",
								p, got.Runs[p], want[p])
						}
					}
				})
			}
		}
	}
}

// FuzzRunContextMatchesRunOne: RunContext must reproduce per-point
// RunOne bit for bit on whatever the input draws -- up to eight points
// of any fetch policy, an override of associativity, replacement,
// write policy, copy-back, warm start and one-word OBL prefetch
// (fuzzOverride), one or two workloads a few chunks long plus a tail,
// and one to three shards.  The seeds are TestShardedDecodePaths'
// cases, the Z8000 warm-up across chunk boundaries first.
func FuzzRunContextMatchesRunOne(f *testing.F) {
	var twoPlane []Point
	for _, sub := range []int{16, 8, 4, 2} {
		twoPlane = append(twoPlane,
			Point{Net: 1024, Block: 64, Sub: sub},
			Point{Net: 1024, Block: 64, Sub: sub, Fetch: cache.LoadForward})
	}
	f.Add(uint8(synth.Z8000), uint8(0), uint8(3), uint16(123), uint8(4|1),
		fuzzPoints(Point{Net: 64, Block: 8, Sub: 2}, Point{Net: 1024, Block: 16, Sub: 4}, Point{Net: 1024, Block: 16, Sub: 16}, Point{Net: 4096, Block: 32, Sub: 8}))
	f.Add(uint8(synth.PDP11), uint8(3), uint8(2), uint16(7), uint8(4|2),
		fuzzPoints(Point{Net: 256, Block: 8, Sub: 2}, Point{Net: 256, Block: 8, Sub: 8}, Point{Net: 1024, Block: 16, Sub: 4}, Point{Net: 1024, Block: 16, Sub: 16}))
	f.Add(uint8(synth.PDP11), uint8(0), uint8(2), uint16(7), uint8(4|1), fuzzPoints(twoPlane...))
	f.Add(uint8(synth.PDP11), uint8(1<<7), uint8(2), uint16(7), uint8(4|2),
		fuzzPoints(Point{Net: 256, Block: 8, Sub: 2}, Point{Net: 256, Block: 8, Sub: 4}, Point{Net: 256, Block: 8, Sub: 8}, Point{Net: 64, Block: 16, Sub: 2}, Point{Net: 64, Block: 16, Sub: 8}))

	f.Fuzz(func(t *testing.T, archSel, policy, chunks uint8, tail uint16, layout uint8, pointBytes []byte) {
		arch := synth.AllArchs()[archSel&3]
		var pts []Point
		seen := make(map[Point]bool)
		for ; len(pointBytes) >= 2 && len(pts) < 8; pointBytes = pointBytes[2:] {
			p := decodeFuzzPoint(pointBytes[0], pointBytes[1], arch.WordSize())
			if !seen[p] {
				seen[p] = true
				pts = append(pts, p)
			}
		}
		refs := int(chunks%4)*trace.ChunkRefs + int(tail)%trace.ChunkRefs
		if len(pts) == 0 || refs == 0 {
			return
		}
		suite := synth.Workloads(arch)
		first := int(layout>>3) % len(suite)
		profs := suite[first : first+1]
		if layout&4 != 0 && first+1 < len(suite) {
			profs = suite[first : first+2]
		}
		req := Request{Arch: arch, Points: pts, Refs: refs, Shards: 1 + int(layout&3)%3,
			Override: fuzzOverride(policy, archSel&4 != 0)}
		want := make(map[Point][]metrics.Run)
		for _, prof := range profs {
			req.Workloads = append(req.Workloads, prof.Name)
			for _, p := range pts {
				cfg := pointConfig(p, req)
				if cfg.Validate() != nil {
					return
				}
				run, err := RunOne(prof, cfg, refs)
				if err != nil {
					t.Fatal(err)
				}
				want[p] = append(want[p], run)
			}
		}
		got, err := RunContext(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if !reflect.DeepEqual(got.Runs[p], want[p]) {
				t.Fatalf("%v (%v, %d refs, %d shards): runs differ from per-point RunOne\n got:  %v\n want: %v",
					p, pointConfig(p, req), refs, req.Shards, got.Runs[p], want[p])
			}
		}
	})
}

// fuzzOverride decodes FuzzRunContextMatchesRunOne's policy byte: bits
// 0-1 pick the associativity (the point's own, 1, 2 or 8, capped at the
// frame count), bits 2-3 the replacement (LRU, FIFO, Random, LRU),
// bits 4-5 the write policy (allocate, no-allocate, ignore, allocate),
// bit 6 copy-back and bit 7 OBL prefetch on one-word sub-blocks;
// flipWarm inverts the architecture's warm start.
func fuzzOverride(policy uint8, flipWarm bool) func(*cache.Config) {
	return func(c *cache.Config) {
		if a := [4]int{0, 1, 2, 8}[policy&3]; a != 0 {
			c.Assoc = min(a, c.NetSize/c.BlockSize)
		}
		c.Replacement = [4]cache.Replacement{cache.LRU, cache.FIFO, cache.Random, cache.LRU}[policy>>2&3]
		c.RandomSeed = 7
		c.Write = [4]cache.WritePolicy{cache.WriteAllocate, cache.WriteNoAllocate, cache.WriteIgnore, cache.WriteAllocate}[policy>>4&3]
		c.CopyBack = policy>>6&1 == 1
		c.PrefetchOBL = policy>>7 == 1 && c.SubBlockSize == c.WordSize
		c.WarmStart = c.WarmStart != flipWarm
	}
}

// decodeFuzzPoint decodes two fuzz bytes into a grid point: b0 bits
// 0-1 pick the net size (64 to 4096 bytes) and bits 2-4 the block
// size (2 to 64 bytes, at most the net and at least a word); b1 bits
// 0-2 halve the block into the sub-block (down to a word) and bits 3-4
// pick the fetch policy.
func decodeFuzzPoint(b0, b1 uint8, wordSize int) Point {
	net := 64 << (2 * (b0 & 3))
	block := min(max(2<<(b0>>2&7%6), wordSize), net)
	sub := max(block>>(b1&7), wordSize)
	return Point{Net: net, Block: block, Sub: sub, Fetch: cache.Fetch(b1 >> 3 & 3)}
}

// fuzzPoints encodes points for decodeFuzzPoint.
func fuzzPoints(pts ...Point) []byte {
	var b []byte
	for _, p := range pts {
		netCode := bits.TrailingZeros(uint(p.Net/64)) / 2
		blockCode := bits.TrailingZeros(uint(p.Block / 2))
		subShift := bits.TrailingZeros(uint(p.Block / p.Sub))
		b = append(b, uint8(netCode|blockCode<<2), uint8(subShift|int(p.Fetch)<<3))
	}
	return b
}

// TestHugeShardCount: a shard count far beyond the unit count is
// clamped by the planners -- it used to size one plan per requested
// shard and run the process out of memory -- and changes no result.
func TestHugeShardCount(t *testing.T) {
	for _, eng := range []Engine{Reference, MultiPass} {
		req := Request{Arch: synth.PDP11, Points: Grid([]int{64}, 2), Refs: 3000,
			Workloads: []string{"ED"}, Engine: eng}
		want, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		req.Shards = 1 << 40
		got, err := Run(req)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if !reflect.DeepEqual(got.Runs, want.Runs) {
			t.Errorf("%v: Shards 1<<40 changed the runs", eng)
		}
	}
}

// TestShardedMixedPolicies: an Override that rearranges policies
// (Random replacement, copy-back) must survive sharding unchanged --
// Random replacement in particular proves each family's victim stream
// is private to the shard that owns it.
func TestShardedMixedPolicies(t *testing.T) {
	pts := []Point{
		{Net: 64, Block: 8, Sub: 2},
		{Net: 64, Block: 8, Sub: 4},
		{Net: 64, Block: 8, Sub: 2, Fetch: cache.LoadForward},
		{Net: 256, Block: 16, Sub: 8},
	}
	override := func(c *cache.Config) {
		c.Replacement = cache.Random
		c.RandomSeed = 7
		c.CopyBack = true
	}
	want, err := Run(Request{Arch: synth.Z8000, Points: pts, Refs: 8000,
		Override: override, Engine: Reference})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Request{Arch: synth.Z8000, Points: pts, Refs: 8000,
		Override: override, Engine: MultiPass, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !reflect.DeepEqual(got.Runs[p], want.Runs[p]) {
			t.Errorf("%v: sharded runs differ\n got:  %v\n want: %v", p, got.Runs[p], want.Runs[p])
		}
	}
}

// TestShardedAllFallback: configurations the multipass kernel cannot
// host (OBL prefetch) must ride the sharded pass on reference
// simulators and still match.
func TestShardedAllFallback(t *testing.T) {
	pts := []Point{
		{Net: 256, Block: 16, Sub: 8},
		{Net: 256, Block: 16, Sub: 2},
		{Net: 64, Block: 8, Sub: 4},
	}
	override := func(c *cache.Config) { c.PrefetchOBL = true }
	want, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 10000,
		Workloads: []string{"ED"}, Override: override, Engine: Reference})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 10000,
		Workloads: []string{"ED"}, Override: override, Engine: MultiPass, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !reflect.DeepEqual(got.Runs[p], want.Runs[p]) {
			t.Errorf("%v: fallback runs differ", p)
		}
	}
	if got.TracePasses != 1 {
		t.Errorf("fallback points should share the single sharded pass: TracePasses = %d", got.TracePasses)
	}
}

// TestRunConfigsDifferential: the exported single-workload entry point
// must match per-configuration RunOne simulation exactly, at several
// shard counts.
func TestRunConfigsDifferential(t *testing.T) {
	prof, ok := synth.ProfileByName("ED")
	if !ok {
		t.Fatal("workload ED missing")
	}
	var cfgs []cache.Config
	for _, p := range []Point{
		{Net: 256, Block: 16, Sub: 8},
		{Net: 256, Block: 16, Sub: 4},
		{Net: 256, Block: 16, Sub: 4, Fetch: cache.LoadForward},
		{Net: 64, Block: 8, Sub: 2},
	} {
		cfgs = append(cfgs, p.Config(synth.PDP11))
	}
	// One config the kernel cannot host, to exercise the fallback path.
	obl := cfgs[3]
	obl.PrefetchOBL = true
	cfgs = append(cfgs, obl)

	const refs = 10000
	for _, shards := range []int{0, 1, 2, len(cfgs) + 3} {
		runs, err := RunConfigs(context.Background(), prof, cfgs, refs, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(runs) != len(cfgs) {
			t.Fatalf("shards=%d: got %d runs, want %d", shards, len(runs), len(cfgs))
		}
		for i, cfg := range cfgs {
			want, err := RunOne(prof, cfg, refs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(runs[i], want) {
				t.Errorf("shards=%d cfgs[%d]: sharded run differs\n got:  %v\n want: %v",
					shards, i, runs[i], want)
			}
		}
	}
}

// TestRunConfigsValidation: the entry point rejects empty inputs and
// mixed word sizes (the configurations share one word-split trace).
func TestRunConfigsValidation(t *testing.T) {
	prof, _ := synth.ProfileByName("ED")
	cfg := Point{Net: 64, Block: 8, Sub: 2}.Config(synth.PDP11)

	if _, err := RunConfigs(context.Background(), prof, nil, 1000, 1); err == nil {
		t.Error("accepted empty configuration list")
	}
	if _, err := RunConfigs(context.Background(), prof, []cache.Config{cfg}, 0, 1); err == nil {
		t.Error("accepted non-positive trace length")
	}
	wide := cfg
	wide.WordSize = 4
	wide.SubBlockSize = 4
	_, err := RunConfigs(context.Background(), prof, []cache.Config{cfg, wide}, 1000, 1)
	if err == nil || !strings.Contains(err.Error(), "WordSize") {
		t.Errorf("mixed word sizes: got %v, want a WordSize error", err)
	}
}

// TestRunContextCancelled: a pre-cancelled context aborts both engines
// at every shard variant with context.Canceled, not a partial result.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := []Point{{Net: 64, Block: 8, Sub: 4}}
	for _, tc := range []struct {
		name   string
		engine Engine
		shards int
	}{
		{"reference/auto", Reference, 0},
		{"reference/sharded", Reference, 2},
		{"multipass/one-shard", MultiPass, 1},
		{"multipass/sharded", MultiPass, 2},
	} {
		res, err := RunContext(ctx, Request{Arch: synth.PDP11, Points: pts,
			Refs: 5000, Engine: tc.engine, Shards: tc.shards})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if res != nil {
			t.Errorf("%s: got a result from a cancelled sweep", tc.name)
		}
	}
}

// TestShardedErrorPropagation: a configuration error inside one shard
// surfaces from the sweep, named after its point, for both engines.
func TestShardedErrorPropagation(t *testing.T) {
	pts := []Point{{Net: 64, Block: 8, Sub: 2}, {Net: 64, Block: 8, Sub: 4}}
	for _, eng := range []Engine{Reference, MultiPass} {
		_, err := Run(Request{
			Arch: synth.PDP11, Points: pts, Refs: 1000, Engine: eng, Shards: 2,
			Override: func(c *cache.Config) { c.Assoc = 999 },
		})
		if err == nil {
			t.Errorf("%v: sharded sweep accepted an invalid config", eng)
			continue
		}
		if errors.Is(err, context.Canceled) {
			t.Errorf("%v: real failure masked by a cancellation: %v", eng, err)
		}
	}
}

// TestReferenceShortCircuit: a simulation unit that fails to build
// aborts its workload before any trace is streamed, so the WrapSource
// hook -- called as the stream starts -- never runs, and the sweep's
// error is the point's construction failure.  Both engines build every
// point as a reference cache here: multipass hands configurations its
// kernel cannot host, as Assoc 999 is, to reference caches.
func TestReferenceShortCircuit(t *testing.T) {
	for _, eng := range []Engine{Reference, MultiPass} {
		var wrapped atomic.Int32
		req := Request{
			Arch: synth.PDP11, Points: Grid([]int{64}, 2), Refs: 2000,
			Workloads: []string{"ED"}, Engine: eng, Parallelism: 1,
			Override: func(c *cache.Config) { c.Assoc = 999 },
			Hooks: &Hooks{WrapSource: func(_ string, src PackedSource) PackedSource {
				wrapped.Add(1)
				return src
			}},
		}
		_, err := Run(req)
		var pe *PointError
		if !errors.As(err, &pe) || pe.WorkloadScope() {
			t.Fatalf("%v: err = %v, want a point-scope PointError", eng, err)
		}
		var pan *PanicError
		if errors.As(pe.Cause, &pan) {
			t.Errorf("%v: cause is a recovered panic, want the validation error: %v", eng, pe.Cause)
		}
		_, want := cache.New(pointConfig(pe.Point, req))
		if want == nil || pe.Cause.Error() != want.Error() {
			t.Errorf("%v: cause = %v, want %v's construction failure %v", eng, pe.Cause, pe.Point, want)
		}
		if n := wrapped.Load(); n != 0 {
			t.Errorf("%v: construction failure still streamed the trace: WrapSource ran %d times", eng, n)
		}
	}
}

// TestShardedParallelismInvariance: neither the parallelism budget nor
// the shard count may change any counter.
func TestShardedParallelismInvariance(t *testing.T) {
	pts := []Point{{Net: 64, Block: 8, Sub: 4}, {Net: 256, Block: 8, Sub: 4}}
	var results []*Result
	for _, tc := range []struct{ par, shards int }{{1, 1}, {8, 2}, {2, 8}} {
		res, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 5000,
			Parallelism: tc.par, Shards: tc.shards, Engine: MultiPass})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for _, p := range pts {
		for i := 1; i < len(results); i++ {
			if !reflect.DeepEqual(results[0].Runs[p], results[i].Runs[p]) {
				t.Errorf("parallelism/shard budget changed results at %v", p)
			}
		}
	}
}
