package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"subcache/internal/metrics"
	"subcache/internal/paperdata"
	"subcache/internal/service"
	"subcache/internal/sweep"
	"subcache/internal/synth"
)

// batchWorkload is a library workload: sweep.RunContext called
// directly, as the CLIs do, on the default engine with auto shards.
// One operation is one (architecture, suite workload) sweep over the
// workload's points; a pass runs every architecture's whole suite.
type batchWorkload struct {
	name string
	// nets are the net sizes the points come from; points picks the
	// organisations for an architecture.
	nets   []int
	points func(synth.Arch) []sweep.Point
	// baseRefs is the trace length per suite workload before the seed
	// offset.
	baseRefs int
}

// table7Grid is the full Table 7 grid: 192 points over the four
// architectures at nets 64, 256 and 1024.
var table7Grid = &batchWorkload{
	name: "table7-grid",
	nets: []int{64, 256, 1024},
	points: func(a synth.Arch) []sweep.Point {
		return sweep.Grid([]int{64, 256, 1024}, a.WordSize())
	},
	baseRefs: 100_000,
}

// paperPoint is Table 7 cell 1024:16,8, reported for all four
// architectures, at the paper's 1,000,000 references per workload.
var paperPoint = &batchWorkload{
	name: "paper-point",
	nets: []int{1024},
	points: func(synth.Arch) []sweep.Point {
		return []sweep.Point{{Net: 1024, Block: 16, Sub: 8}}
	},
	baseRefs: 1_000_000,
}

// setups is how many times a run repeats its set-up; setup_s is the
// median.
const setups = 3

// checkRefs is the trace length of the once-per-run reference-engine
// cross-check.
const checkRefs = 4000

// seedOffset maps a seed to a trace-length offset.  A seed's only
// effect on a batch request is its length, which gives every seed its
// own fingerprint and digest.
func seedOffset(seed int) int { return seed % 1000 }

// ops returns one pass of operations in architecture, then catalog
// order.
func (b *batchWorkload) ops(seed int) []sweep.Request {
	var ops []sweep.Request
	for _, a := range synth.AllArchs() {
		pts := b.points(a)
		for _, p := range synth.Workloads(a) {
			ops = append(ops, sweep.Request{
				Arch:      a,
				Points:    pts,
				Refs:      b.baseRefs + seedOffset(seed),
				Workloads: []string{p.Name},
				Engine:    sweep.MultiPass,
			})
		}
	}
	return ops
}

// checks collects failed correctness checks.
type checks []string

func (c *checks) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Println("check FAILED:", msg)
	*c = append(*c, msg)
}

// referenceCheck runs a reduced-length copy of every request on the
// reference engine and on the default engine; their results must be
// deeply equal.
func referenceCheck(c *checks, reqs []sweep.Request) error {
	ctx := context.Background()
	for _, req := range reqs {
		req.Refs = checkRefs
		fast, err := sweep.RunContext(ctx, req)
		if err != nil {
			return err
		}
		req.Engine = sweep.Reference
		ref, err := sweep.RunContext(ctx, req)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(fast.Runs, ref.Runs) || !reflect.DeepEqual(fast.Summaries, ref.Summaries) {
			c.fail("%v %v: default engine differs from the reference engine at %d refs", req.Arch, req.Workloads, checkRefs)
		}
	}
	fmt.Printf("check reference engine over %d requests at %d refs: done\n", len(reqs), checkRefs)
	return nil
}

// timed measures the end-to-end metrics.  Set-up runs one pass with a
// checkpoint journal per architecture; that pass gives the expected
// digests, and its journals serve the read path.  The timed phase then
// cycles through the pass, running each operation fresh (simulated)
// and then again resumed from its journal (the checkpoint read path,
// what a rerun of `experiments -checkpoint` takes), until the time is
// up.  Every figure is taken per complete pass and reported as the
// median over passes.  Times are process CPU time (see cpuTime),
// counted in cycles of the clock cycleNs measures after each pass;
// wall-clock figures are printed beside them for reading only.
func (b *batchWorkload) timed(e *env) (*report, error) {
	ctx := context.Background()
	ops := b.ops(e.seed)
	var c checks
	if err := referenceCheck(&c, ops); err != nil {
		return nil, err
	}
	words := make([]int, len(ops))
	for i, op := range ops {
		n, err := requestWords(op)
		if err != nil {
			return nil, err
		}
		words[i] = n
	}

	digests := make([]string, len(ops))
	results := make([]*sweep.Result, len(ops))
	var setupS, setupWall []float64
	var journals string
	for s := 0; s < setups; s++ {
		dir := filepath.Join(e.scratch, fmt.Sprintf("setup%d", s))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0, c0 := time.Now(), cpuTime()
		for i, op := range ops {
			op.Checkpoint = journalPath(dir, op.Arch)
			res, err := sweep.RunContext(ctx, op)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			d := resultDigest(res)
			if s == 0 {
				digests[i], results[i] = d, res
			} else if d != digests[i] {
				c.fail("set-up %d: %v %v digest differs from set-up 0", s, op.Arch, op.Workloads)
			}
		}
		setupS = append(setupS, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		if s < setups-1 {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		} else {
			journals = dir
		}
	}

	var fresh, hit latencies
	// Per complete pass: fresh CPU and wall ns per word ref, live-heap
	// peak, and the cycle length measured after the pass.
	var nsPerRef, wallNsPerRef, heapMB, cycles []float64
	attempted, failed := 0, 0
	var passCPU, passWall time.Duration
	passWords := 0
	peak := startHeapPeak()
	defer peak.Stop()
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < e.seconds; {
		op := ops[i]
		attempted++
		t0, c0 := time.Now(), cpuTime()
		res, err := sweep.RunContext(ctx, op)
		passCPU += cpuTime() - c0
		passWall += time.Since(t0)
		fresh.add(time.Since(t0))
		if err != nil || resultDigest(res) != digests[i] {
			failed++
			c.fail("fresh %v %v: err %v or digest mismatch", op.Arch, op.Workloads, err)
		} else {
			passWords += words[i]
		}

		attempted++
		op.Checkpoint = journalPath(journals, op.Arch)
		t0 = time.Now()
		res, err = sweep.RunContext(ctx, op)
		hit.add(time.Since(t0))
		if err != nil || res.Resumed != 1 || resultDigest(res) != digests[i] {
			failed++
			c.fail("resume %v %v: err %v, or not resumed, or digest mismatch", op.Arch, op.Workloads, err)
		}

		if i++; i == len(ops) {
			nsPerRef = append(nsPerRef, float64(passCPU)/float64(max(passWords, 1)))
			wallNsPerRef = append(wallNsPerRef, float64(passWall)/float64(max(passWords, 1)))
			heapMB = append(heapMB, peak.take())
			cycle, _, err := cycleNs()
			if err != nil {
				return nil, err
			}
			cycles = append(cycles, cycle)
			i, passCPU, passWall, passWords = 0, 0, 0, 0
		}
	}
	if len(nsPerRef) == 0 {
		return nil, fmt.Errorf("%g seconds is too short for one pass of %d operations", e.seconds, 2*len(ops))
	}
	fmt.Printf("passes %d (medians over passes): fresh CPU %.2f ns/ref, cycle %.4f ns, fresh wall %.2f ns/ref; set-up wall %.3f s (median)\n",
		len(nsPerRef), median(nsPerRef), median(cycles), median(wallNsPerRef), median(setupWall))

	parts := make([][]byte, len(digests))
	for i, d := range digests {
		parts[i] = []byte(d)
	}
	fmt.Printf("digest %s seed %d %s\n", b.name, e.seed, digestOf(parts))

	ms := map[string]metric{}
	errPct, agreePct, pairs, err := b.fidelity(results)
	if err != nil {
		return nil, err
	}
	fmt.Printf("paper fidelity over %d anchor pairs\n", pairs)
	set(ms, "setup_s", median(setupS))
	set(ms, "cycles_per_ref", median(nsPerRef)/median(cycles))
	set(ms, "peak_live_heap_mb", median(heapMB))
	set(ms, "paper_miss_err_pct", errPct)
	set(ms, "paper_order_agree_pct", agreePct)
	hit.report("resume")
	fresh.report("fresh")
	return &report{Correct: len(c) == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

func journalPath(dir string, a synth.Arch) string {
	return filepath.Join(dir, fmt.Sprintf("arch%d.ckpt.jsonl", int(a)))
}

// fidelity compares one pass's architecture averages with Table 7.
func (b *batchWorkload) fidelity(results []*sweep.Result) (errPct, agreePct float64, pairs int, err error) {
	type ap struct {
		arch synth.Arch
		p    sweep.Point
	}
	runs := map[ap][]metrics.Run{}
	for _, res := range results {
		for p, rs := range res.Runs {
			runs[ap{res.Arch, p}] = append(runs[ap{res.Arch, p}], rs...)
		}
	}
	var as []anchor
	for _, a := range synth.AllArchs() {
		miss := map[paperdata.Key]float64{}
		for _, p := range b.points(a) {
			miss[keyOf(p)] = metrics.Average(runs[ap{a, p}]).Miss
		}
		as = append(as, anchorsOf(a, miss)...)
	}
	return paperFidelity(as)
}

// traced replays one pass layer by layer.  Its service split sends the
// first suite workload of each architecture to sweepd, fresh and then
// repeated; paper-point's single organisation has no wire form, so its
// requests carry the grid row of its net size.
func (b *batchWorkload) traced(e *env) (*report, error) {
	ops := b.ops(e.seed)
	var wire []service.SweepRequest
	for _, op := range ops {
		if len(wire) > 0 && wire[len(wire)-1].Arch == op.Arch.String() {
			continue
		}
		w := service.SweepRequest{Arch: op.Arch.String(), Nets: b.nets, Refs: op.Refs, Workloads: op.Workloads}
		wire = append(wire, w, w)
	}
	return tracedRun(e, ops, wire)
}
