package faultinject

import (
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

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

// campaign is the CI smoke campaign over the PDP-11 suite: its points
// and the seed's ten injections.
func campaign() ([]sweep.Point, []Injection) {
	points := testPoints()
	var workloads []string
	for _, p := range synth.Workloads(synth.PDP11) {
		workloads = append(workloads, p.Name)
	}
	return points, Plan(campaignSeed, 10, workloads, testRefs, len(points), 2)
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

// checkAttributedOrClean is the harness's central guarantee: after any
// single injected fault the sweep either fails, returning no result and
// an error attributed to the injection, or the fault never fired and
// every run is bit-identical to the undisturbed baseline.  In this
// campaign only a shard panic aimed past a sweep's last shard cannot
// fire.
func checkAttributedOrClean(t *testing.T, in Injection, shards int, res *sweep.Result, err error, base *sweep.Result) {
	t.Helper()
	if err == nil {
		if in.Fault != ShardPanic || in.Shard < shards {
			t.Fatalf("%v did not fail the sweep", in.Fault)
		}
		if !reflect.DeepEqual(res.Runs, base.Runs) {
			t.Fatal("sweep succeeded, but its runs differ from the baseline")
		}
		return
	}
	if res != nil {
		t.Fatalf("failed sweep returned a result: %v", err)
	}
	if in.Fault == Cancel {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled sweep: err = %v, want context.Canceled", err)
		}
		return
	}
	var pe *sweep.PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *sweep.PointError: %v", err)
	}
	if pe.Workload != in.Workload {
		t.Errorf("error attributed to workload %q, injected into %q: %v", pe.Workload, in.Workload, pe)
	}
	if !injectedCause(pe.Cause) {
		t.Errorf("error cause does not trace to the injection: %v", pe)
	}
	switch in.Fault {
	case ShortRead, ParseError, SourcePanic:
		if !pe.WorkloadScope() {
			t.Errorf("source fault attributed to point %v, want workload scope: %v", pe.Point, pe)
		}
	case UnitPanic, ShardPanic:
		if pe.WorkloadScope() {
			t.Errorf("%v attributed to the whole workload, want one point: %v", in.Fault, pe)
		}
		if in.Fault == ShardPanic && pe.Shard != in.Shard {
			t.Errorf("shard panic attributed to shard %d, injected into shard %d", pe.Shard, in.Shard)
		}
	}
}

// TestCampaignAttributedOrClean drives a deterministic seed-derived
// fault campaign, every fault kind among its injections, through both
// engines at one and two shards and asserts the attributed-or-clean
// invariant for each injection.
func TestCampaignAttributedOrClean(t *testing.T) {
	points, injections := campaign()
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
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			req := sweep.Request{
				Arch: synth.PDP11, Points: points, Refs: testRefs,
				Engine: v.engine, Shards: v.shards,
			}
			base, err := sweep.Run(req)
			if err != nil {
				t.Fatalf("clean baseline: %v", err)
			}
			for _, in := range injections {
				in := in
				t.Run(in.String(), func(t *testing.T) {
					r := req
					ctx := Apply(&r, in)
					res, err := sweep.RunContext(ctx, r)
					checkAttributedOrClean(t, in, v.shards, res, err, base)
				})
			}
		})
	}
}

// TestPlanCoversEveryFault: the CI campaign injects every fault kind,
// so it crosses every recovery boundary -- source, unit and shard --
// and the caller's cancellation.
func TestPlanCoversEveryFault(t *testing.T) {
	_, injections := campaign()
	seen := make(map[Fault]bool)
	for _, in := range injections {
		seen[in.Fault] = true
	}
	for f := Fault(0); f < numFaults; f++ {
		if !seen[f] {
			t.Errorf("campaign never injects %v", f)
		}
	}
}

// TestFailFastAttribution: an injected unit panic surfaces as the
// sweep's error, typed and attributed, instead of crashing the process.
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
// reporting any of its points would be silently wrong.  The sweep fails
// with a workload-scope error that the service retries as transient.
func TestWorkloadScopeNoPartialCounters(t *testing.T) {
	points := testPoints()
	for _, shards := range []int{0, 2} {
		req := sweep.Request{
			Arch: synth.PDP11, Points: points, Refs: testRefs,
			Engine: sweep.MultiPass, Shards: shards,
			Hooks: SourceHooks("ED", ShortRead, testRefs/2),
		}
		res, err := sweep.Run(req)
		var pe *sweep.PointError
		if !errors.As(err, &pe) || pe.Workload != "ED" || !pe.WorkloadScope() {
			t.Fatalf("shards=%d: err = %v, want a workload-scope PointError on ED", shards, err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) || !sweep.Transient(err) {
			t.Errorf("shards=%d: err = %v, want a transient unexpected EOF", shards, err)
		}
		if res != nil {
			t.Errorf("shards=%d: failed sweep returned a result", shards)
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
