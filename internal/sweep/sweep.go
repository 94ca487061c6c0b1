// Package sweep runs families of cache configurations over workload
// suites: the harness behind every table and figure reproduction.
//
// A sweep generates each workload's trace once, splits it to data-path
// words, and streams it in fixed-size chunks to shard workers that
// together hold every requested cache organisation (the chunk-broadcast
// executor in shard.go, the one path every engine runs on).  Results
// come back as metrics.Run values keyed by (workload, point) plus
// unweighted per-architecture averages, the paper's aggregation (§3.3).
//
// Execution is fault tolerant (see fault.go): worker panics become
// attributed PointErrors, Request.ContinueOnError trades fail-fast
// abort for partial results, and Request.Checkpoint journals completed
// workloads so an interrupted sweep resumes instead of restarting.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"subcache/internal/cache"
	"subcache/internal/metrics"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
	"subcache/internal/trace"
)

// Engine selects how a sweep simulates its points.  Results are
// bit-identical across engines, so production callers leave it at the
// zero value, MultiPass; tests and benchmarks name the others.
type Engine int

const (
	// MultiPass makes a single pass over each workload's trace, feeding
	// every point simultaneously: points whose tag dynamics are
	// sub-block-invariant (cache.Config.MultiPassSafe) are grouped into
	// multipass.Family kernels sharing one tag engine per (net, block)
	// family, and the rest ride the same pass as individual reference
	// caches.  It is the zero value, the default.
	MultiPass Engine = iota
	// Reference gives every point its own cache.Cache, which replays
	// the whole trace: one pass per (workload, point) pair in
	// Result.TracePasses, though every cache is fed from the workload's
	// one streamed generation.  It is the oracle the single-pass engines
	// are checked against.
	Reference
	// StackDist also makes a single pass per workload, but collapses
	// further: every LRU point of one block size -- all net sizes,
	// associativities, sub-block sizes and fetch policies at once --
	// shares a single stack-distance recency list (stackdist.Engine),
	// deriving each point's counters from per-set LRU depths.  Points
	// stack analysis cannot compute exactly (non-LRU replacement,
	// write-no-allocate, prefetch; see stackdist.Supported) fall back
	// to multipass families or reference caches on the same pass.
	// Results are bit-identical to Reference; sharding partitions sets
	// rather than configurations.
	StackDist
)

// String returns the engine's name, as the run-start event reports it.
func (e Engine) String() string {
	switch e {
	case Reference:
		return "reference"
	case MultiPass:
		return "multipass"
	case StackDist:
		return "stackdist"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Point is one cache organisation within a sweep, in the paper's
// (net, block, sub-block) coordinates plus the fetch policy.
type Point struct {
	Net, Block, Sub int
	Fetch           cache.Fetch
}

// String renders the point in the paper's notation, e.g. "1024:16,8" or
// "256:16,2,LF".
func (p Point) String() string {
	s := fmt.Sprintf("%d:%d,%d", p.Net, p.Block, p.Sub)
	switch p.Fetch {
	case cache.LoadForward:
		s += ",LF"
	case cache.LoadForwardOptimized:
		s += ",LFopt"
	case cache.WholeBlock:
		s += ",WB"
	}
	return s
}

// Table 1's parameter ranges.
const (
	minBlock = 2
	maxBlock = 64
	minSub   = 2
	maxSub   = 32
)

// Grid enumerates the paper's Table 1 design grid for the given net
// sizes on a machine with the given word size: block sizes 2-64 bytes,
// sub-block sizes 2-32 bytes, sub-block <= block <= net, and sub-block
// at least one data-path word.  Points are ordered largest block first,
// then largest sub-block, matching Table 7's layout.
func Grid(netSizes []int, wordSize int) []Point {
	var pts []Point
	for _, net := range netSizes {
		for block := maxBlock; block >= minBlock; block /= 2 {
			if block > net {
				continue
			}
			for sub := maxSub; sub >= minSub; sub /= 2 {
				if sub > block || sub < wordSize {
					continue
				}
				if block == maxBlock && sub > 16 {
					// Table 7 stops 64-byte blocks at 16-byte
					// sub-blocks (Table 1 caps sub-blocks at 32, and
					// the paper reports no 64,32 point).
					continue
				}
				pts = append(pts, Point{Net: net, Block: block, Sub: sub})
			}
		}
	}
	return pts
}

// Config converts a point into a full cache configuration for an
// architecture, applying the paper's fixed choices: 4-way
// set-associative (capped at the block count for tiny caches), LRU,
// write-allocate, warm-start for the Z8000.
func (p Point) Config(arch synth.Arch) cache.Config {
	assoc := 4
	if frames := p.Net / p.Block; frames < assoc {
		assoc = frames
	}
	return cache.Config{
		NetSize:      p.Net,
		BlockSize:    p.Block,
		SubBlockSize: p.Sub,
		Assoc:        assoc,
		WordSize:     arch.WordSize(),
		Replacement:  cache.LRU,
		Fetch:        p.Fetch,
		Write:        cache.WriteAllocate,
		WarmStart:    arch.WarmStart(),
	}
}

// Request describes one sweep.
type Request struct {
	// Arch selects the workload suite and word size.
	Arch synth.Arch
	// Points are the organisations to simulate.
	Points []Point
	// Refs is the trace length per workload (the paper uses 1,000,000).
	Refs int
	// Workloads optionally restricts the suite to the named workloads
	// (e.g. the load-forward study's CCP, C1, C2); nil means all.
	Workloads []string
	// Override, if non-nil, adjusts each derived cache.Config before
	// simulation (used by the ablation benches to change replacement
	// policy, associativity or warm-start handling).
	Override func(*cache.Config)
	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS.
	Parallelism int
	// Engine selects the simulation strategy; the zero value is
	// MultiPass.  Every engine gives bit-identical results, so only
	// tests and benchmarks set it (Reference is their oracle).
	Engine Engine
	// Shards selects intra-workload parallelism: each workload's
	// simulation units are partitioned across that many shard workers,
	// all fed from a single chunk-broadcast trace generation (every
	// cache still sees the complete ordered stream, so results stay
	// bit-identical; the trace is streamed, never materialised).  0,
	// the default, picks the parallelism budget spread over the suite's
	// workloads, rounded up; only tests and benchmarks set another
	// count.  Negative is an error.
	Shards int
	// ContinueOnError selects the degraded-completion failure policy:
	// instead of the first failing point aborting the sweep
	// (fail-fast, the default), the failure is recorded in
	// Result.Errors with its exact workload/point/shard attribution
	// and every unaffected simulation unit keeps running.  Surviving
	// points are bit-identical to an undisturbed sweep: a unit is
	// either fed the complete ordered trace or reported failed, never
	// half-counted.  Cancellation of the caller's context still aborts
	// the sweep with an error.
	ContinueOnError bool
	// Checkpoint, when non-empty, names a journal file to which every
	// completed workload's runs are atomically appended, and from
	// which a restarted sweep restores hash-verified entries instead
	// of re-simulating them (Result.Resumed counts restores).  The
	// journal is keyed by what determines results -- architecture,
	// Refs, point set -- so resumes may change engine, shard count,
	// parallelism or the workload subset.  Incompatible with Override.
	Checkpoint string
	// Hooks instruments the execution layer for fault injection and
	// tests; nil in production.  See Hooks.
	Hooks *Hooks
	// Recorder receives runtime telemetry: counters, stage timings
	// and the structured event stream (run-start, point-done,
	// shard-stat, error-attributed; see internal/telemetry and
	// docs/OBSERVABILITY.md).  nil disables telemetry.  Recording is
	// observation only -- results are bit-identical with it on or off
	// -- and every call site sits at chunk or workload granularity,
	// so the access kernel stays allocation-free.
	Recorder telemetry.Recorder
}

// Result holds a completed sweep.
type Result struct {
	Arch synth.Arch
	// Runs maps point -> one run per workload, in catalog order.  With
	// ContinueOnError a failed (workload, point) pair is simply absent
	// from its point's slice; Errors says why.
	Runs map[Point][]metrics.Run
	// Summaries maps point -> the unweighted average across workloads.
	// With ContinueOnError a point that failed for some workloads is
	// averaged over its surviving runs (N says how many), and a point
	// with no surviving runs has no summary.
	Summaries map[Point]metrics.Summary
	// TracePasses counts full replays of a workload's word trace summed
	// across workloads: len(Points) per workload for the Reference
	// engine, whose every cache replays the whole stream, and 1 per
	// workload for the single-pass engines.  Workloads restored from a
	// checkpoint cost no passes.  The sweep benchmarks report it as the
	// single-pass kernels' headline saving.
	TracePasses int
	// Errors lists every attributed failure of a ContinueOnError
	// sweep, ordered by workload (catalog order), then point.  Empty
	// for a fully successful sweep; always empty under fail-fast,
	// where the first failure is returned as the sweep's error
	// instead.
	Errors []*PointError
	// Resumed counts workloads restored from the Checkpoint journal
	// rather than simulated.
	Resumed int
}

// Points returns the result's points sorted by net size, then by the
// Table 7 ordering (block descending, sub descending, demand before
// load-forward).
func (r *Result) Points() []Point {
	pts := make([]Point, 0, len(r.Summaries))
	for p := range r.Summaries {
		pts = append(pts, p)
	}
	sortPoints(pts)
	return pts
}

// pointLess is the canonical point ordering: net ascending, then the
// Table 7 layout (block descending, sub descending, demand first).
func pointLess(a, b Point) bool {
	if a.Net != b.Net {
		return a.Net < b.Net
	}
	if a.Block != b.Block {
		return a.Block > b.Block
	}
	if a.Sub != b.Sub {
		return a.Sub > b.Sub
	}
	return a.Fetch < b.Fetch
}

// sortPoints orders points canonically (see pointLess).
func sortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool { return pointLess(pts[i], pts[j]) })
}

// Run executes the sweep.
func Run(req Request) (*Result, error) {
	return RunContext(context.Background(), req)
}

// RunContext executes the sweep under a context: cancelling ctx aborts
// every worker promptly.  Under the default fail-fast policy the first
// failing point cancels the rest of the sweep and is returned as the
// error (panics included, recovered and attributed); with
// Request.ContinueOnError failures accumulate in Result.Errors
// instead.
func RunContext(ctx context.Context, req Request) (*Result, error) {
	if req.Refs <= 0 {
		return nil, fmt.Errorf("sweep: non-positive trace length %d", req.Refs)
	}
	if len(req.Points) == 0 {
		return nil, fmt.Errorf("sweep: no points requested")
	}
	if req.Shards < 0 {
		return nil, fmt.Errorf("sweep: negative shard count %d (want 0 for auto, or a positive count)", req.Shards)
	}
	switch req.Engine {
	case Reference, MultiPass, StackDist:
	default:
		return nil, fmt.Errorf("sweep: unknown engine %v", req.Engine)
	}
	// Every point replays one trace split to the architecture's data
	// path, so an Override may not change the word size.
	for _, p := range req.Points {
		if ws := pointConfig(p, req).WordSize; ws != req.Arch.WordSize() {
			return nil, fmt.Errorf("sweep: point %v: WordSize %d, want %v's %d (points share one word-split trace)", p, ws, req.Arch, req.Arch.WordSize())
		}
	}
	profiles, err := selectWorkloads(req.Arch, req.Workloads)
	if err != nil {
		return nil, err
	}

	par := req.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	outer, shards := shardLayout(req.Shards, par, len(profiles))

	rec := telemetry.OrNop(req.Recorder)
	if rec.Enabled() {
		rec.Add(telemetry.PointsPlanned, uint64(len(req.Points)*len(profiles)))
		rec.Emit(&telemetry.Event{Type: telemetry.EventRunStart, RunStart: &telemetry.RunStart{
			Arch:       req.Arch.String(),
			Engine:     req.Engine.String(),
			Shards:     shards,
			Points:     len(req.Points),
			Workloads:  len(profiles),
			Refs:       req.Refs,
			Checkpoint: req.Checkpoint != "",
		}})
	}

	var ck *ckState
	if req.Checkpoint != "" {
		fp, err := requestFingerprint(req)
		if err != nil {
			return nil, err
		}
		j, err := OpenJournal(req.Checkpoint)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		j.rec = rec
		ck = &ckState{j: j, fp: fp, points: req.Points}
	}

	// Every engine runs on the chunk-broadcast executor (shard.go).  A
	// Reference point's cache replays the whole trace on its own, so it
	// counts as one pass per point.
	passesPerWorkload := 1
	if req.Engine == Reference {
		passesPerWorkload = len(req.Points)
	}
	fn := func(ctx context.Context, prof synth.Profile) (map[Point]metrics.Run, []*PointError) {
		return simulateSharded(ctx, prof, req, shards)
	}
	perProf, perrs, attempted, resumed, err := runWorkloads(ctx, profiles, req, ck, outer, fn)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Arch:      req.Arch,
		Runs:      make(map[Point][]metrics.Run, len(req.Points)),
		Summaries: make(map[Point]metrics.Summary, len(req.Points)),
		Resumed:   resumed,
	}
	for i, runs := range perProf {
		for p, run := range runs {
			res.Runs[p] = append(res.Runs[p], run)
		}
		if attempted[i] {
			res.TracePasses += passesPerWorkload
		}
	}
	for _, pes := range perrs {
		res.Errors = append(res.Errors, pes...)
	}
	for p, runs := range res.Runs {
		res.Summaries[p] = metrics.Average(runs)
	}
	return res, nil
}

// shardLayout resolves a sweep's parallelism budget into the number of
// workloads to run at once (outer, which runWorkloads clamps to
// [1, workloads]) and the shard workers each of them gets.  A requested
// shard count of 0 means auto.
func shardLayout(requested, par, workloads int) (outer, shards int) {
	shards = requested
	if shards == 0 {
		// Auto: spread the cores over the suite's concurrent workloads,
		// rounding up so a many-core box stays busy even when the suite
		// is small.
		shards = (par + workloads - 1) / workloads
	}
	shards = max(shards, 1)
	return par / shards, shards
}

// runWorkloads executes fn once per profile with bounded parallelism,
// applying the sweep's failure policy and checkpointing:
//
//   - fail-fast (default): the first workload reporting an error
//     cancels its siblings, and the first error in profile order is
//     returned;
//   - ContinueOnError: per-workload errors accumulate and every other
//     workload completes;
//   - checkpointing: profiles present in the journal are restored
//     without simulation, and every cleanly completed workload is
//     recorded the moment it finishes.
//
// fn must return either complete runs for every point it does not
// report an error for, or nil runs plus workload-scope errors -- never
// half-counted partial counters.  A workload aborted by cancellation
// returns no runs and no errors (it is a casualty, not a cause).
func runWorkloads(
	ctx context.Context,
	profiles []synth.Profile,
	req Request,
	ck *ckState,
	outer int,
	fn func(context.Context, synth.Profile) (map[Point]metrics.Run, []*PointError),
) (perProf []map[Point]metrics.Run, perrs [][]*PointError, attempted []bool, resumed int, err error) {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(profiles)
	perProf = make([]map[Point]metrics.Run, n)
	perrs = make([][]*PointError, n)
	attempted = make([]bool, n)
	var mu sync.Mutex // guards resumed

	rec := telemetry.OrNop(req.Recorder)
	var active atomic.Int64 // concurrent workload executors, for the gauge

	jobs := make(chan int)
	var wg sync.WaitGroup
	if outer > n {
		outer = n
	}
	if outer < 1 {
		outer = 1
	}
	for w := 0; w < outer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue
				}
				prof := profiles[i]
				if runs, ok := ck.lookup(prof.Name); ok {
					perProf[i] = runs
					mu.Lock()
					resumed++
					mu.Unlock()
					rec.Add(telemetry.PointsResumed, uint64(len(runs)))
					sp := telemetry.StartSpan(rec, telemetry.Span{
						Name: "workload", Workload: prof.Name,
						Parent: telemetry.SpanFromContext(ctx), Detail: "resumed",
					})
					emitPointsDone(rec, prof.Name, req.Points, runs, true)
					sp.End()
					continue
				}
				attempted[i] = true
				rec.SetGauge(telemetry.ActiveWorkloads, active.Add(1))
				sp := telemetry.StartSpan(rec, telemetry.Span{
					Name: "workload", Workload: prof.Name,
					Parent: telemetry.SpanFromContext(ctx),
				})
				runs, pes := fn(telemetry.ContextWithSpan(ctx, sp.ID()), prof)
				rec.SetGauge(telemetry.ActiveWorkloads, active.Add(-1))
				perProf[i] = runs
				if runs != nil && len(pes) == 0 && ctx.Err() == nil {
					if ckErr := ck.record(prof.Name, runs); ckErr != nil {
						pes = append(pes, &PointError{Workload: prof.Name, Shard: -1, Cause: ckErr})
					}
				}
				perrs[i] = pes
				rec.Add(telemetry.PointsCompleted, uint64(len(runs)))
				emitPointsDone(rec, prof.Name, req.Points, runs, false)
				for _, pe := range pes {
					rec.Add(telemetry.PointsFailed, 1)
					rec.Emit(pe.event())
				}
				if len(pes) > 0 {
					sp.EndErr(pes[0].Cause.Error())
					if !req.ContinueOnError {
						cancel()
					}
				} else {
					sp.End()
				}
			}
		}()
	}
	for i := range profiles {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	if !req.ContinueOnError {
		for _, pes := range perrs {
			if len(pes) > 0 {
				return nil, nil, nil, 0, pes[0]
			}
		}
	}
	if cerr := parent.Err(); cerr != nil {
		return nil, nil, nil, 0, cerr
	}
	return perProf, perrs, attempted, resumed, nil
}

// emitPointsDone emits one point-done event per completed run, in the
// request's point order (run completion order is scheduling-dependent,
// the event stream should not be).
func emitPointsDone(rec telemetry.Recorder, workload string, points []Point, runs map[Point]metrics.Run, resumed bool) {
	if !rec.Enabled() {
		return
	}
	for _, p := range points {
		run, ok := runs[p]
		if !ok {
			continue
		}
		rec.Emit(&telemetry.Event{Type: telemetry.EventPointDone, PointDone: &telemetry.PointDone{
			Workload: workload,
			Point:    p.String(),
			Miss:     run.Miss,
			Traffic:  run.Traffic,
			Resumed:  resumed,
		}})
	}
}

// pointConfig resolves a point's full cache configuration under the
// request, applying any Override.
func pointConfig(p Point, req Request) cache.Config {
	cfg := p.Config(req.Arch)
	if req.Override != nil {
		req.Override(&cfg)
	}
	return cfg
}

// selectWorkloads resolves the request's workload list.
func selectWorkloads(arch synth.Arch, names []string) ([]synth.Profile, error) {
	all := synth.Workloads(arch)
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]synth.Profile, len(all))
	for _, p := range all {
		byName[p.Name] = p
	}
	out := make([]synth.Profile, 0, len(names))
	for _, n := range names {
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("sweep: workload %q not in %v suite", n, arch)
		}
		out = append(out, p)
	}
	return out, nil
}

// RunOne simulates a single workload through a single configuration:
// the facade's simple path and a convenience for tests.  The trace is
// streamed straight from the generator, never materialised.
func RunOne(prof synth.Profile, cfg cache.Config, refs int) (metrics.Run, error) {
	return RunOneContext(context.Background(), prof, cfg, refs)
}

// RunOneContext is RunOne honoring a context: cancellation or deadline
// expiry aborts the replay at the next chunk boundary with ctx's
// error, exactly as RunContext does for full sweeps.
func RunOneContext(ctx context.Context, prof synth.Profile, cfg cache.Config, refs int) (metrics.Run, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return metrics.Run{}, err
	}
	src, err := synth.NewWordSource(prof, refs, cfg.WordSize)
	if err != nil {
		return metrics.Run{}, err
	}
	if err := c.Run(trace.WithContext(ctx, src)); err != nil {
		return metrics.Run{}, err
	}
	return metrics.NewRun(prof.Name, cfg, c.Stats()), nil
}
