// The sweep executor, for every engine: one workload's simulation
// units are partitioned across shard workers, all fed from a single
// trace generation by broadcasting fixed-size chunks of the word
// stream, in trace.PackRefs form, through a ring of reusable buffers.
// The producer fills each chunk with one ReadPacked call; the synthetic
// word source generates straight into that form.  A one-shard run is
// the degenerate case, not a separate path.
//
// Sharding is across configurations (or, for stack-distance groups,
// across disjoint set partitions), never across the trace: every
// family, stack engine and reference cache still consumes the complete
// ordered access stream, and each one is owned by exactly one worker,
// so per-point counters are bit-identical to replaying the trace
// through one cache.Cache per configuration (RunOne) -- only the
// scheduling changes.  The trace is never materialised; memory stays
// at O(buffers), not O(refs).
//
// Fault tolerance: each shard's simulation units (see fault.go) fail
// independently.  A panicking unit is retired with its configurations
// attributed; the broadcast keeps flowing to the rest, so survivors
// stay bit-identical.  A trace-stream failure is workload-scope -- it
// invalidates every unit's counters, so no partial runs are reported.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/metrics"
	"subcache/internal/multipass"
	"subcache/internal/stackdist"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
	"subcache/internal/trace"
)

// chunkRefs is the broadcast granularity, shared with every other
// batched access path in the harness (see trace.ChunkRefs for the
// sizing rationale).  Chunk indices count in these units, which is
// what Hooks.BeforeChunk and fault-injection plans target.
const chunkRefs = trace.ChunkRefs

// PackedSource is the executor's trace input: a workload's word
// stream in trace.PackRefs form at the request's word size.
// ReadPacked fills dst and returns how many words it stored.  It stops
// short only at end of stream, where the error is io.EOF (possibly
// alongside n > 0), or on a failed read, whose error it returns after
// the n good words -- the contract of trace.ReadChunk, so every chunk
// but the last is full and chunk indices count whole chunks.
// *synth.WordSource is the implementation every sweep streams from.
type PackedSource interface {
	ReadPacked(dst []uint64) (int, error)
}

// chunk is one slice of the word trace in flight to every shard, in
// trace.PackRefs form at the trace's word size.  left counts shards
// that have yet to finish it; the last one returns the backing buffer
// to the free ring.
type chunk struct {
	words []uint64
	left  atomic.Int32
}

// shardRunner is one worker's owned simulation state: the units its
// plan assigned, plus its inbound chunk queue.  Only the owning
// goroutine touches units/live/chunk/refs and the telemetry fields.
type shardRunner struct {
	shard int
	units []*simUnit
	live  int // units not yet dead
	chunk int // next chunk index (identical across shards)
	in    chan *chunk
	// refs receives each chunk decoded back to trace.Ref form for the
	// shard's reference caches; nil when the shard owns none.
	refs      []trace.Ref
	wordShift uint

	// Telemetry, accumulated locally (single-writer) and published
	// once at end of pass when timed: references fed to the shard,
	// references consumed by its live units, wall time inside
	// processChunk and, of that, decoding chunks for reference caches,
	// and the partitioner's cost estimate for its plan.
	timed   bool
	refsFed uint64
	simRefs uint64
	busy    time.Duration
	decode  time.Duration
	estCost int
}

// RunConfigs evaluates every configuration against one workload in a
// single chunk-streamed trace pass, sharded across shard workers
// (0 or less picks GOMAXPROCS).  Configurations that share tag-array
// dynamics are grouped into multipass families within each shard; the
// rest ride the same pass on reference simulators.  The returned runs
// align with cfgs and are bit-identical to per-configuration
// simulation.  All configurations must agree on WordSize, since they
// consume one shared word-split trace.  Failures are fail-fast: the
// first failing configuration (bad config or recovered panic) aborts
// the pass and is returned, named by its index.
func RunConfigs(ctx context.Context, prof synth.Profile, cfgs []cache.Config, refs, shards int) ([]metrics.Run, error) {
	if refs <= 0 {
		return nil, fmt.Errorf("sweep: non-positive trace length %d", refs)
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sweep: no configurations")
	}
	ws := cfgs[0].WordSize
	for i, c := range cfgs {
		if c.WordSize != ws {
			return nil, fmt.Errorf("sweep: cfgs[%d].WordSize = %d, want %d (configurations must share one word-split trace)", i, c.WordSize, ws)
		}
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	runs, ok, failed, err := runConfigsSharded(ctx, prof, cfgs, nil, refs, ws, shards, MultiPass, false, nil, telemetry.Nop)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, fmt.Errorf("sweep: %s trace: %w", prof.Name, err)
	}
	if len(failed) > 0 {
		f := failed[0]
		return nil, fmt.Errorf("sweep: cfgs[%d]: %w", f.idxs[0], f.cause)
	}
	for i := range ok {
		if !ok[i] {
			return nil, fmt.Errorf("sweep: cfgs[%d]: no result", i)
		}
	}
	return runs, nil
}

// referencePlans gives each configuration its own reference cache,
// spread round-robin across shards (grid points are near-equal cost).
func referencePlans(n, shards int) []multipass.ShardPlan {
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	plans := make([]multipass.ShardPlan, shards)
	for i := 0; i < n; i++ {
		s := i % shards
		plans[s].Rest = append(plans[s].Rest, i)
	}
	return plans
}

// shardUnitLists realises an engine's plan over cfgs as per-shard unit
// lists plus the planner's per-shard cost estimates, attributing
// construction failures to the owning shard index.  Lists may number
// fewer than shards when the planner cannot fill them all.
func shardUnitLists(eng Engine, cfgs []cache.Config, points []Point, shards int) (lists [][]*simUnit, costs []int, failed []unitFailure) {
	switch eng {
	case StackDist:
		// Stack groups fan out across shards by set partitioning;
		// configurations stack analysis refuses (stackdist.Supported)
		// ride the same pass on multipass families or reference caches,
		// planned over the leftover indexes and remapped back.
		splans, rest := stackdist.Partition(cfgs, shards)
		var mplans []multipass.ShardPlan
		if len(rest) > 0 {
			restCfgs := make([]cache.Config, len(rest))
			for i, k := range rest {
				restCfgs[i] = cfgs[k]
			}
			mplans = multipass.PartitionShards(restCfgs, shards)
			for pi := range mplans {
				for _, idxs := range mplans[pi].Families {
					for j, k := range idxs {
						idxs[j] = rest[k]
					}
				}
				for j, k := range mplans[pi].Rest {
					mplans[pi].Rest[j] = rest[k]
				}
			}
		}
		n := len(splans)
		if len(mplans) > n {
			n = len(mplans)
		}
		lists = make([][]*simUnit, n)
		costs = make([]int, n)
		for si := 0; si < n; si++ {
			if si < len(splans) {
				us, fs := planStackUnits(splans[si], cfgs, points, si)
				lists[si] = append(lists[si], us...)
				failed = append(failed, fs...)
				costs[si] += splans[si].Cost()
			}
			if si < len(mplans) {
				us, fs := planUnits(mplans[si], cfgs, points, si)
				lists[si] = append(lists[si], us...)
				failed = append(failed, fs...)
				costs[si] += mplans[si].Cost()
			}
		}
	case MultiPass:
		plans := multipass.PartitionShards(cfgs, shards)
		lists = make([][]*simUnit, len(plans))
		costs = make([]int, len(plans))
		for si, plan := range plans {
			us, fs := planUnits(plan, cfgs, points, si)
			lists[si] = us
			failed = append(failed, fs...)
			costs[si] = plan.Cost()
		}
	default: // Reference
		plans := referencePlans(len(cfgs), shards)
		lists = make([][]*simUnit, len(plans))
		costs = make([]int, len(plans))
		for si, plan := range plans {
			us, fs := planUnits(plan, cfgs, points, si)
			lists[si] = us
			failed = append(failed, fs...)
			costs[si] = plan.Cost()
		}
	}
	return lists, costs, failed
}

// planStackUnits realises one shard's stack units -- each a set
// partition of one stack group -- attributing construction failures to
// the given shard.
func planStackUnits(plan stackdist.Plan, cfgs []cache.Config, points []Point, shard int) (units []*simUnit, failed []unitFailure) {
	for _, u := range plan.Units {
		ucfgs := make([]cache.Config, len(u.Idxs))
		for j, k := range u.Idxs {
			ucfgs[j] = cfgs[k]
		}
		e, err := stackdist.NewEngine(ucfgs, u.Parts, u.Part)
		if err != nil {
			failed = append(failed, unitFailure{idxs: u.Idxs, shard: shard, gid: u.Gid + 1, cause: err})
			continue
		}
		units = append(units, &simUnit{stack: e, idxs: u.Idxs, pts: unitPoints(points, u.Idxs), gid: u.Gid + 1})
	}
	return units, failed
}

// planUnits realises one shard plan's families and fallback caches as
// simUnits, attributing construction failures to the given shard.
func planUnits(plan multipass.ShardPlan, cfgs []cache.Config, points []Point, shard int) (units []*simUnit, failed []unitFailure) {
	for _, idxs := range plan.Families {
		fcfgs := make([]cache.Config, len(idxs))
		for j, k := range idxs {
			fcfgs[j] = cfgs[k]
		}
		fam, err := multipass.New(fcfgs)
		if err != nil {
			failed = append(failed, unitFailure{idxs: idxs, shard: shard, cause: err})
			continue
		}
		units = append(units, &simUnit{fam: fam, idxs: idxs, pts: unitPoints(points, idxs)})
	}
	for _, k := range plan.Rest {
		c, err := cache.New(cfgs[k])
		if err != nil {
			failed = append(failed, unitFailure{idxs: []int{k}, shard: shard, cause: err})
			continue
		}
		units = append(units, &simUnit{cache: c, idxs: []int{k}, pts: unitPoints(points, []int{k})})
	}
	return units, failed
}

// unitPoints resolves the points a unit carries; nil when the caller
// has no point vocabulary (RunConfigs).
func unitPoints(points []Point, idxs []int) []Point {
	if points == nil {
		return nil
	}
	pts := make([]Point, len(idxs))
	for j, k := range idxs {
		pts[j] = points[k]
	}
	return pts
}

// runConfigsSharded is the chunk-broadcast executor.  eng selects how
// configurations are planned into units: stack-distance engines plus
// fallbacks (StackDist), multipass families plus fallbacks (MultiPass),
// or one reference cache per configuration (Reference); points
// (optional, aligned with cfgs) gives failures their grid-point
// attribution.
//
// The return contract implements the sweep's failure granularity:
//
//   - err non-nil is workload scope: the trace stream failed (raw cause,
//     unwrapped) or ctx was cancelled.  Every unit's counters cover a
//     truncated stream, so runs is nil -- nothing is half-counted.
//   - failed lists units that died (construction error, recovered panic
//     from the unit, its hooks, or its whole shard).  Under fail-fast
//     (continueOnError false) the first failure stops the pass and runs
//     is nil; under continueOnError survivors complete the full stream
//     and ok[i] marks which runs are valid.  A dead stack unit poisons
//     its whole group -- sibling set partitions cover disjoint set
//     spaces, so a group with a lost partition has no complete point --
//     and the group's points are attributed exactly once.
func runConfigsSharded(ctx context.Context, prof synth.Profile, cfgs []cache.Config, points []Point, refs, wordSize, shards int, eng Engine, continueOnError bool, hooks *Hooks, rec telemetry.Recorder) (runs []metrics.Run, ok []bool, failed []unitFailure, err error) {
	enabled := rec.Enabled()
	lists, costs, failed := shardUnitLists(eng, cfgs, points, shards)
	if len(failed) > 0 && !continueOnError {
		return nil, nil, failed[:1], nil
	}

	runners := make([]*shardRunner, len(lists))
	nbuf := 2*len(lists) + 2
	wordShift := addr.Log2(uint64(wordSize))
	total := 0
	for si, units := range lists {
		rn := &shardRunner{shard: si, units: units, live: len(units), in: make(chan *chunk, nbuf), wordShift: wordShift, timed: enabled, estCost: costs[si]}
		for _, u := range units {
			if u.cache != nil {
				rn.refs = make([]trace.Ref, chunkRefs)
				break
			}
		}
		runners[si] = rn
		total += len(units)
	}
	if total == 0 {
		return make([]metrics.Run, len(cfgs)), make([]bool, len(cfgs)), dedupGroupFailures(failed), nil
	}

	src, err := synth.NewWordSource(prof, refs, wordSize)
	if err != nil {
		return nil, nil, nil, err
	}
	wrapped := hooks.wrapSource(prof.Name, src)

	// ictx governs the pass internally: it is cancelled by the caller's
	// ctx, by the first failure under fail-fast, or when every unit is
	// dead and streaming the rest of the trace would be wasted work.
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	var live atomic.Int64
	live.Store(int64(total))
	var mu sync.Mutex // guards failed after the workers start
	fail := func(f unitFailure, killed int) {
		mu.Lock()
		failed = append(failed, f)
		mu.Unlock()
		if !continueOnError || live.Add(-int64(killed)) == 0 {
			cancel()
		}
	}

	// The free ring: every chunk buffer in existence.  At most nbuf
	// chunks are ever in flight, so the per-shard queues (capacity
	// nbuf) never block the producer -- backpressure comes solely from
	// an empty ring, i.e. from the slowest shard.
	free := make(chan []uint64, nbuf)
	for i := 0; i < nbuf; i++ {
		free <- make([]uint64, chunkRefs)
	}

	var produceErr error
	var wg sync.WaitGroup
	wg.Add(1)
	parentSpan := telemetry.SpanFromContext(ctx)
	go func() {
		defer wg.Done()
		defer func() {
			for _, rn := range runners {
				close(rn.in)
			}
		}()
		psp := telemetry.StartSpan(rec, telemetry.Span{Name: "produce", Parent: parentSpan, Workload: prof.Name})
		defer psp.End()
		// Producer-side stage accounting, per chunk: time filling it
		// from the word source is trace-read; time waiting for a free
		// buffer (backpressure from the slowest shard) plus time
		// handing chunks to shard queues is broadcast.
		var readTime, castTime time.Duration
		if enabled {
			defer func() {
				rec.Observe(telemetry.StageTraceRead, readTime)
				rec.Observe(telemetry.StageBroadcast, castTime)
			}()
		}
		// A panicking trace source (or source wrapper) is recovered
		// into a workload-scope error, like any other stream failure.
		perr := safeCall(func() {
			var t0 time.Time
			for {
				var buf []uint64
				if enabled {
					t0 = time.Now()
				}
				select {
				case buf = <-free:
				case <-ictx.Done():
					return
				}
				if enabled {
					now := time.Now()
					castTime += now.Sub(t0)
					t0 = now
				}
				// One fill per chunk; a read error ends it early, after
				// the words read before it.
				n, rerr := wrapped.ReadPacked(buf)
				if enabled {
					readTime += time.Since(t0)
				}
				if n > 0 {
					if enabled {
						rec.Add(telemetry.RefsRead, uint64(n))
						rec.SetGauge(telemetry.FreeRingOccupancy, int64(len(free)))
						t0 = time.Now()
					}
					ck := &chunk{words: buf[:n]}
					ck.left.Store(int32(len(runners)))
					for _, rn := range runners {
						select {
						case rn.in <- ck:
						case <-ictx.Done():
							return
						}
					}
					if enabled {
						castTime += time.Since(t0)
						rec.Add(telemetry.ChunksBroadcast, 1)
					}
				}
				if rerr != nil {
					if rerr != io.EOF {
						produceErr = rerr
					}
					return
				}
			}
		})
		if perr != nil {
			produceErr = perr
		}
	}()

	for _, rn := range runners {
		wg.Add(1)
		go func(rn *shardRunner) {
			defer wg.Done()
			ssp := telemetry.StartSpan(rec, telemetry.Span{
				Name: "shard", Parent: parentSpan, Workload: prof.Name,
				Detail: fmt.Sprintf("%d", rn.shard),
			})
			defer ssp.End()
			for ck := range rn.in {
				// On cancellation keep draining (the producer may have
				// broadcast chunks already) but stop simulating.
				if ictx.Err() == nil && rn.live > 0 {
					if enabled {
						t0 := time.Now()
						rn.processChunk(ck.words, prof.Name, hooks, fail)
						rn.busy += time.Since(t0)
						rn.refsFed += uint64(len(ck.words))
					} else {
						rn.processChunk(ck.words, prof.Name, hooks, fail)
					}
				}
				if ck.left.Add(-1) == 0 {
					free <- ck.words[:chunkRefs]
				}
			}
		}(rn)
	}
	wg.Wait()

	// Publish per-shard telemetry: the aggregates, the simulate- and
	// decode-stage times, and one shard-stat event per worker.  Emitted
	// even for failed or cancelled passes -- a stalled shard is exactly
	// what an observer wants to see attributed.
	if enabled {
		for _, rn := range runners {
			rec.ShardObserve(rn.shard, rn.refsFed, rn.busy)
			rec.Observe(telemetry.StageSimulate, rn.busy-rn.decode)
			if rn.refs != nil {
				rec.Observe(telemetry.StageDecode, rn.decode)
			}
			rec.Add(telemetry.RefsSimulated, rn.simRefs)
			lanes := 0
			for _, u := range rn.units {
				lanes += len(u.idxs)
			}
			rec.Emit(&telemetry.Event{Type: telemetry.EventShardStat, ShardStat: &telemetry.ShardStat{
				Workload: prof.Name,
				Shard:    rn.shard,
				Units:    len(rn.units),
				Lanes:    lanes,
				EstCost:  rn.estCost,
				Refs:     rn.refsFed,
				BusyMS:   float64(rn.busy) / 1e6,
			}})
		}
	}

	if produceErr != nil {
		return nil, nil, nil, produceErr
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, nil, cerr
	}
	if len(failed) > 0 && !continueOnError {
		mu.Lock()
		first := failed[:1]
		mu.Unlock()
		return nil, nil, first, nil
	}

	var flushStart time.Time
	if enabled {
		flushStart = time.Now()
	}
	fsp := telemetry.StartSpan(rec, telemetry.Span{Name: "flush", Parent: parentSpan, Workload: prof.Name})
	defer fsp.End()
	var families, stackUnits uint64
	runs = make([]metrics.Run, len(cfgs))
	ok = make([]bool, len(cfgs))
	for _, rn := range runners {
		for _, u := range rn.units {
			if u.dead || u.stack != nil {
				continue
			}
			if uerr := u.collect(prof.Name, runs); uerr != nil {
				failed = append(failed, unitFailure{idxs: u.idxs, shard: rn.shard, cause: uerr})
				if !continueOnError {
					return nil, nil, failed[len(failed)-1:], nil
				}
				continue
			}
			if u.fam != nil {
				families++
			}
			for _, k := range u.idxs {
				ok[k] = true
			}
		}
	}

	// Stack units merge by group: sibling set partitions hold disjoint
	// slices of each configuration's counters (every flushed counter is
	// a per-partition linear sum), so adding them reconstructs the
	// whole-stream statistics exactly.  A group with any dead sibling is
	// poisoned -- a partial merge would silently undercount -- and its
	// points are attributed through the recorded failure instead.
	deadG := make(map[int]bool)
	for _, f := range failed {
		if f.gid > 0 {
			deadG[f.gid] = true
		}
	}
	type stackGroup struct {
		first *simUnit
		stats []cache.Stats
	}
	groups := make(map[int]*stackGroup)
	for _, rn := range runners {
		for _, u := range rn.units {
			if u.stack == nil || u.dead || deadG[u.gid] {
				continue
			}
			if uerr := safeCall(u.stack.FlushUsage); uerr != nil {
				failed = append(failed, unitFailure{idxs: u.idxs, shard: rn.shard, gid: u.gid, cause: uerr})
				deadG[u.gid] = true
				if !continueOnError {
					return nil, nil, failed[len(failed)-1:], nil
				}
				continue
			}
			stackUnits++
			g := groups[u.gid]
			if g == nil {
				g = &stackGroup{first: u, stats: make([]cache.Stats, len(u.idxs))}
				groups[u.gid] = g
			}
			for j := range u.idxs {
				g.stats[j].Add(u.stack.Stats(j))
			}
		}
	}
	for gid, g := range groups {
		if deadG[gid] {
			continue
		}
		for j, k := range g.first.idxs {
			runs[k] = metrics.NewRun(prof.Name, g.first.stack.Config(j), &g.stats[j])
			ok[k] = true
		}
	}

	if enabled {
		rec.Observe(telemetry.StageFlush, time.Since(flushStart))
		rec.Add(telemetry.FamiliesFlushed, families)
		rec.Add(telemetry.StackUnitsFlushed, stackUnits)
	}
	return runs, ok, dedupGroupFailures(failed), nil
}

// dedupGroupFailures collapses sibling stack-partition failures, which
// share one index list, to the first per group, so pointErrors reports
// each lost point exactly once.
func dedupGroupFailures(failed []unitFailure) []unitFailure {
	seen := make(map[int]bool)
	kept := failed[:0]
	for _, f := range failed {
		if f.gid > 0 {
			if seen[f.gid] {
				continue
			}
			seen[f.gid] = true
		}
		kept = append(kept, f)
	}
	return kept
}

// processChunk feeds one broadcast chunk of packed words to every live
// unit the shard owns, decoding it once first if the shard hosts
// reference caches.  The BeforeChunk hook runs in its own recovery
// boundary; a panic there is shard-scope and kills every unit the
// shard still has.  A panic inside one unit (or its BeforeUnit hook)
// kills only that unit.
func (rn *shardRunner) processChunk(words []uint64, workload string, hooks *Hooks, fail func(unitFailure, int)) {
	if hooks != nil && hooks.BeforeChunk != nil {
		if herr := safeCall(func() { hooks.BeforeChunk(workload, rn.shard, rn.chunk) }); herr != nil {
			for _, u := range rn.units {
				if u.dead {
					continue
				}
				u.dead = true
				rn.live--
				fail(unitFailure{idxs: u.idxs, shard: rn.shard, gid: u.gid, cause: herr}, 1)
			}
			rn.chunk++
			return
		}
	}
	var refs []trace.Ref
	if rn.refs != nil {
		var t0 time.Time
		if rn.timed {
			t0 = time.Now()
		}
		refs = rn.refs[:len(words)]
		trace.UnpackRefs(refs, words, rn.wordShift)
		if rn.timed {
			rn.decode += time.Since(t0)
		}
	}
	for _, u := range rn.units {
		if u.dead {
			continue
		}
		if uerr := u.accessBatch(words, refs, hooks, workload, rn.shard, rn.chunk); uerr != nil {
			u.dead = true
			rn.live--
			fail(unitFailure{idxs: u.idxs, shard: rn.shard, gid: u.gid, cause: uerr}, 1)
			continue
		}
		rn.simRefs += uint64(len(words))
	}
	rn.chunk++
}

// simulateSharded evaluates every requested point over one workload via
// the chunk-broadcast executor, planned by req.Engine, translating unit
// failures into attributed PointErrors.  A workload aborted by the
// caller's cancellation returns (nil, nil): a casualty, not a cause.
func simulateSharded(ctx context.Context, prof synth.Profile, req Request, shards int) (map[Point]metrics.Run, []*PointError) {
	cfgs := make([]cache.Config, len(req.Points))
	for i, p := range req.Points {
		cfgs[i] = pointConfig(p, req)
	}
	runs, ok, failed, err := runConfigsSharded(ctx, prof, cfgs, req.Points, req.Refs,
		req.Arch.WordSize(), shards, req.Engine, req.ContinueOnError, req.Hooks,
		telemetry.OrNop(req.Recorder))
	if err != nil {
		if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return nil, nil
		}
		return nil, []*PointError{{Workload: prof.Name, Shard: -1, Cause: fmt.Errorf("trace: %w", err)}}
	}
	pes := pointErrors(prof.Name, req.Points, failed)
	sort.Slice(pes, func(i, j int) bool { return pointLess(pes[i].Point, pes[j].Point) })
	out := make(map[Point]metrics.Run, len(req.Points))
	for i, run := range runs {
		if ok[i] {
			out[req.Points[i]] = run
		}
	}
	return out, pes
}
