package faultinject

import (
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"subcache/internal/metrics"
	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/trace"
)

// campaignSeed fixes the CI smoke campaign; change it only with the
// fault model (the whole point is reproducibility).
const campaignSeed = 0x5bc7

// testRefs spans multiple trace chunks so chunk-indexed faults have
// somewhere to land (trace.ChunkRefs = 8192).
const testRefs = 3*trace.ChunkRefs + 100

func testPoints() []sweep.Point { return sweep.Grid([]int{64, 256}, 2) }

func baseline(t *testing.T, req sweep.Request) *sweep.Result {
	t.Helper()
	req.Hooks = nil
	res, err := sweep.Run(req)
	if err != nil {
		t.Fatalf("clean baseline: %v", err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("clean baseline reported errors: %v", res.Errors)
	}
	return res
}

// injectedCause reports whether an attributed error traces back to this
// package's injection: either the ErrInjected sentinel or a recovered
// panic (whose value is a string, not a wrapped error).
func injectedCause(err error) bool {
	if errors.Is(err, ErrInjected) {
		return true
	}
	var pe *sweep.PanicError
	return errors.As(err, &pe)
}

// checkAttributedOrSurvived is the harness's central guarantee: after
// any single injected fault, every (workload, point) pair is either
// bit-identical to the undisturbed baseline or covered by an error
// attributed to the injection's workload.
func checkAttributedOrSurvived(t *testing.T, in Injection, res *sweep.Result, err error, base *sweep.Result, workloads []string, points []sweep.Point) {
	t.Helper()
	if err != nil {
		// Only the cancellation fault aborts a ContinueOnError sweep.
		if in.Fault != Cancel || !errors.Is(err, context.Canceled) {
			t.Fatalf("sweep error is not the injected cancellation: %v", err)
		}
		if res != nil {
			t.Fatalf("cancelled sweep returned a partial result")
		}
		return
	}

	// Index the errors by (workload, point); verify attribution.
	lost := make(map[string]map[sweep.Point]bool)
	for _, pe := range res.Errors {
		if pe.Workload != in.Workload {
			t.Errorf("error attributed to workload %q, injected into %q: %v", pe.Workload, in.Workload, pe)
		}
		if !injectedCause(pe.Cause) {
			t.Errorf("error cause does not trace to the injection: %v", pe)
		}
		if lost[pe.Workload] == nil {
			lost[pe.Workload] = make(map[sweep.Point]bool)
		}
		if pe.WorkloadScope() {
			for _, p := range points {
				lost[pe.Workload][p] = true
			}
		} else {
			lost[pe.Workload][pe.Point] = true
		}
	}

	// Every pair: survived bit-identical, or attributed.
	for _, p := range points {
		baseRuns := runsByWorkload(base.Runs[p])
		gotRuns := runsByWorkload(res.Runs[p])
		for _, w := range workloads {
			got, ok := gotRuns[w]
			if !ok {
				if !lost[w][p] {
					t.Errorf("workload %s point %v: missing with no attributed error", w, p)
				}
				continue
			}
			if lost[w][p] {
				t.Errorf("workload %s point %v: both a run and an error", w, p)
			}
			if !reflect.DeepEqual(got, baseRuns[w]) {
				t.Errorf("workload %s point %v: surviving run differs from baseline\n got:  %v\n want: %v",
					w, p, got, baseRuns[w])
			}
		}
	}
}

func runsByWorkload(runs []metrics.Run) map[string]metrics.Run {
	out := make(map[string]metrics.Run, len(runs))
	for _, r := range runs {
		out[r.Trace] = r
	}
	return out
}

// TestCampaignAttributedOrSurvived drives a deterministic seed-derived
// fault campaign through both engines at one and two shards and
// asserts the attributed-or-survived invariant for each injection.
func TestCampaignAttributedOrSurvived(t *testing.T) {
	points := testPoints()
	var workloads []string
	for _, p := range synth.Workloads(synth.PDP11) {
		workloads = append(workloads, p.Name)
	}
	// Each engine runs at one shard, the executor's degenerate case,
	// and at two.
	variants := []struct {
		name   string
		engine sweep.Engine
		shards int
	}{
		{"reference-1shard", sweep.Reference, 1},
		{"reference-sharded", sweep.Reference, 2},
		{"multipass-1shard", sweep.MultiPass, 1},
		{"multipass-sharded", sweep.MultiPass, 2},
	}
	injections := Plan(campaignSeed, 10, workloads, testRefs, len(points), 2)

	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			req := sweep.Request{
				Arch: synth.PDP11, Points: points, Refs: testRefs,
				Engine: v.engine, Shards: v.shards, ContinueOnError: true,
			}
			base := baseline(t, req)
			for _, in := range injections {
				in := in
				t.Run(in.String(), func(t *testing.T) {
					r := req
					ctx := Apply(&r, in)
					res, err := sweep.RunContext(ctx, r)
					checkAttributedOrSurvived(t, in, res, err, base, workloads, points)
				})
			}
		})
	}
}

// TestFailFastAttribution: without ContinueOnError an injected unit
// panic surfaces as the sweep's error, typed and attributed, instead of
// crashing the process.
func TestFailFastAttribution(t *testing.T) {
	points := testPoints()
	target := points[len(points)/2]
	for _, shards := range []int{1, 2} {
		req := sweep.Request{
			Arch: synth.PDP11, Points: points, Refs: testRefs,
			Engine: sweep.MultiPass, Shards: shards,
			Hooks: UnitPanicHooks("ED", target, 1),
		}
		res, err := sweep.Run(req)
		if err == nil {
			t.Fatalf("shards=%d: injected panic did not fail the sweep", shards)
		}
		if res != nil {
			t.Errorf("shards=%d: failed sweep returned a result", shards)
		}
		var pe *sweep.PointError
		if !errors.As(err, &pe) {
			t.Fatalf("shards=%d: error is not a *sweep.PointError: %v", shards, err)
		}
		if pe.Workload != "ED" {
			t.Errorf("shards=%d: attributed to workload %q, want ED", shards, pe.Workload)
		}
		var panicErr *sweep.PanicError
		if !errors.As(err, &panicErr) {
			t.Errorf("shards=%d: cause is not a recovered panic: %v", shards, pe.Cause)
		}
	}
}

// TestWorkloadScopeNoPartialCounters: a mid-stream trace failure must
// lose the whole workload -- its counters cover a truncated stream, so
// reporting any of its points would be silently wrong.
func TestWorkloadScopeNoPartialCounters(t *testing.T) {
	points := testPoints()
	for _, shards := range []int{0, 2} {
		req := sweep.Request{
			Arch: synth.PDP11, Points: points, Refs: testRefs,
			Engine: sweep.MultiPass, Shards: shards, ContinueOnError: true,
			Hooks: SourceHooks("ED", ShortRead, testRefs/2),
		}
		res, err := sweep.Run(req)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		sawScope := false
		for _, pe := range res.Errors {
			if pe.Workload != "ED" {
				t.Errorf("shards=%d: error on wrong workload: %v", shards, pe)
			}
			if pe.WorkloadScope() {
				sawScope = true
			}
		}
		if !sawScope {
			t.Fatalf("shards=%d: no workload-scope error for the truncated trace; got %v", shards, res.Errors)
		}
		for p, runs := range res.Runs {
			for _, r := range runs {
				if r.Trace == "ED" {
					t.Errorf("shards=%d: point %v reports a run for the truncated workload", shards, p)
				}
			}
		}
	}
}

// TestSourceFaultsLatch: an injected source fails on the word after its
// armed count -- inside the fill that crosses it, after the words
// before it -- and keeps returning its error, matching the latched
// contract of the production trace readers.  A stream that ends before
// the armed count ends cleanly.
func TestSourceFaultsLatch(t *testing.T) {
	prof := synth.Workloads(synth.PDP11)[0]
	inner, err := synth.NewWordSource(prof, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(inner, ShortRead, 5)
	dst := make([]uint64, 3)
	if n, err := src.ReadPacked(dst); n != 3 || err != nil {
		t.Fatalf("fill before the fault = (%d, %v), want (3, nil)", n, err)
	}
	n, err1 := src.ReadPacked(dst)
	if n != 2 || !errors.Is(err1, io.ErrUnexpectedEOF) || !errors.Is(err1, ErrInjected) {
		t.Fatalf("fill across the fault = (%d, %v), want 2 words and an injected unexpected EOF", n, err1)
	}
	if n, err2 := src.ReadPacked(dst); n != 0 || err2 != err1 {
		t.Errorf("error not latched: %v then (%d, %v)", err1, n, err2)
	}

	short, err := synth.NewWordSource(prof, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]uint64, 64)
	if n, err := NewSource(short, ShortRead, 50).ReadPacked(big); n == 0 || n >= 50 || err != io.EOF {
		t.Errorf("stream shorter than the armed count = (%d, %v), want its words and io.EOF", n, err)
	}
}

// TestPlanDeterministic: the campaign is a pure function of its seed.
func TestPlanDeterministic(t *testing.T) {
	w := []string{"a", "b"}
	p1 := Plan(42, 8, w, testRefs, 10, 4)
	p2 := Plan(42, 8, w, testRefs, 10, 4)
	if !reflect.DeepEqual(p1, p2) {
		t.Error("same seed produced different campaigns")
	}
	p3 := Plan(43, 8, w, testRefs, 10, 4)
	if reflect.DeepEqual(p1, p3) {
		t.Error("different seeds produced identical campaigns")
	}
}

// TestCorruptors: the byte-level corruptors behave as documented.
func TestCorruptors(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5}
	if got := TruncateTail(data, 2); !reflect.DeepEqual(got, []byte{1, 2, 3}) {
		t.Errorf("TruncateTail = %v", got)
	}
	if got := TruncateTail(data, 9); got != nil {
		t.Errorf("TruncateTail past start = %v, want nil", got)
	}
	if got := FlipByte(data, 1); got[1] != 2^0xFF || got[0] != 1 {
		t.Errorf("FlipByte = %v", got)
	}
	if !reflect.DeepEqual(data, []byte{1, 2, 3, 4, 5}) {
		t.Error("corruptors mutated their input")
	}
}
