package sweep

import (
	"reflect"
	"strings"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/synth"
)

// TestEnginesProduceIdenticalRuns: the MultiPass engine -- the zero
// Engine, which every production request leaves in place -- must
// reproduce the Reference engine's per-workload runs exactly -- every
// counter and every derived ratio -- over a full Table 1 grid, while
// making one trace pass per workload instead of one per point.
func TestEnginesProduceIdenticalRuns(t *testing.T) {
	pts := Grid([]int{64, 256}, 2)
	base := Request{Arch: synth.PDP11, Points: pts, Refs: 20000}

	ref := base
	ref.Engine = Reference
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	workloads := len(synth.Workloads(synth.PDP11))
	if want.TracePasses != len(pts)*workloads {
		t.Errorf("reference TracePasses = %d, want %d", want.TracePasses, len(pts)*workloads)
	}
	if got.TracePasses != workloads {
		t.Errorf("multipass TracePasses = %d, want %d", got.TracePasses, workloads)
	}
	if want.TracePasses < 5*got.TracePasses {
		t.Errorf("pass reduction %d/%d below the 5x target", want.TracePasses, got.TracePasses)
	}

	for _, p := range pts {
		if !reflect.DeepEqual(got.Runs[p], want.Runs[p]) {
			t.Errorf("%v: engine runs differ\n got:  %v\n want: %v", p, got.Runs[p], want.Runs[p])
		}
		if got.Summaries[p] != want.Summaries[p] {
			t.Errorf("%v: engine summaries differ", p)
		}
	}
}

// TestMultiPassFallback: points whose configuration is not
// MultiPassSafe (here, OBL prefetch via Override) must fall back to the
// reference simulator inside the single pass and still match a
// Reference-engine sweep bit for bit.
func TestMultiPassFallback(t *testing.T) {
	pts := []Point{
		{Net: 256, Block: 16, Sub: 8},
		{Net: 256, Block: 16, Sub: 2},
	}
	override := func(c *cache.Config) { c.PrefetchOBL = true }
	want, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 10000,
		Workloads: []string{"ED"}, Override: override, Engine: Reference})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 10000,
		Workloads: []string{"ED"}, Override: override, Engine: MultiPass})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !reflect.DeepEqual(got.Runs[p], want.Runs[p]) {
			t.Errorf("%v: fallback runs differ\n got:  %v\n want: %v", p, got.Runs[p], want.Runs[p])
		}
	}
	if got.TracePasses != 1 {
		t.Errorf("fallback points should ride the single pass: TracePasses = %d", got.TracePasses)
	}
}

// TestMultiPassMixedPolicies: a sweep whose Override leaves some points
// eligible and rearranges policies still matches the reference engine.
func TestMultiPassMixedPolicies(t *testing.T) {
	pts := []Point{
		{Net: 64, Block: 8, Sub: 2},
		{Net: 64, Block: 8, Sub: 4},
		{Net: 64, Block: 8, Sub: 2, Fetch: cache.LoadForward},
	}
	override := func(c *cache.Config) {
		c.Replacement = cache.Random
		c.RandomSeed = 7
		c.CopyBack = true
	}
	for _, wl := range [][]string{{"CCP"}, nil} {
		want, err := Run(Request{Arch: synth.Z8000, Points: pts, Refs: 8000,
			Workloads: wl, Override: override, Engine: Reference})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(Request{Arch: synth.Z8000, Points: pts, Refs: 8000,
			Workloads: wl, Override: override, Engine: MultiPass})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if !reflect.DeepEqual(got.Runs[p], want.Runs[p]) {
				t.Errorf("%v (workloads %v): engine runs differ", p, wl)
			}
		}
	}
}

// TestMultiPassInvalidConfig: configuration errors surface from the
// single-pass path just as from the reference path.
func TestMultiPassInvalidConfig(t *testing.T) {
	_, err := Run(Request{
		Arch: synth.PDP11, Points: []Point{{Net: 64, Block: 8, Sub: 2}},
		Refs: 1000, Workloads: []string{"ED"}, Engine: MultiPass,
		Override: func(c *cache.Config) { c.Assoc = 999 },
	})
	if err == nil {
		t.Error("multipass sweep accepted an override that invalidates the config")
	}
}

// TestMultiPassParallelismInvariance mirrors TestRunParallelismOne for
// the workload-parallel engine.
func TestMultiPassParallelismInvariance(t *testing.T) {
	pts := []Point{{Net: 64, Block: 8, Sub: 4}, {Net: 256, Block: 8, Sub: 4}}
	var results []*Result
	for _, par := range []int{1, 8} {
		res, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 5000,
			Parallelism: par, Engine: MultiPass})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for _, p := range pts {
		if !reflect.DeepEqual(results[0].Runs[p], results[1].Runs[p]) {
			t.Errorf("parallelism changed multipass results at %v", p)
		}
	}
}

func TestEngineNames(t *testing.T) {
	var zero Engine
	for e, want := range map[Engine]string{zero: "multipass", Reference: "reference", StackDist: "stackdist"} {
		if e.String() != want {
			t.Errorf("Engine(%d).String() = %q, want %q", int(e), e.String(), want)
		}
	}
	if s := Engine(42).String(); !strings.Contains(s, "42") {
		t.Errorf("Engine(42).String() = %q", s)
	}
	if _, err := Run(Request{Arch: synth.PDP11, Refs: 10,
		Points: []Point{{Net: 64, Block: 8, Sub: 2}}, Engine: Engine(42)}); err == nil {
		t.Error("Run accepted an unknown engine")
	}
}
