// Command perfbench is the repository benchmark: three workloads over
// the sweep library and the sweep service, measured end to end with
// tracing off, or layer by layer in a separate traced run.
//
//	perfbench --workload table7-grid|paper-point|sweepd-mix --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set; both
// are listed in BENCHMARK.json and explained in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every metric the two modes print, with
// units; BENCHMARK.json lists the same names.
var endToEnd = map[string]string{
	"setup_s":               "s",
	"cycles_per_ref":        "cycles/ref",
	"peak_live_heap_mb":     "MiB",
	"paper_miss_err_pct":    "%",
	"paper_order_agree_pct": "%",
}

var perLayer = func() map[string]string {
	m := map[string]string{
		"cal_ns":                        "ns",
		"synth.generate_ns_per_ref":     "ns/ref",
		"trace.pack_ns_per_ref":         "ns/ref",
		"multipass.kernel_ns_per_ref":   "ns/ref",
		"multipass.flush_ns_per_ref":    "ns/ref",
		"multipass.plan_ns_per_ref":     "ns/ref",
		"multipass.hit_ns":              "ns",
		"multipass.miss_ns":             "ns",
		"stackdist.kernel_ns_per_ref":   "ns/ref",
		"stackdist.flush_ns_per_ref":    "ns/ref",
		"stackdist.plan_ns_per_ref":     "ns/ref",
		"stackdist.hit_ns":              "ns",
		"stackdist.miss_ns":             "ns",
		"cache.fallback_ns_per_ref":     "ns/ref",
		"cache.hit_ns":                  "ns",
		"cache.miss_ns":                 "ns",
		"replay.wall_ns_per_ref":        "ns/ref",
		"replay.unaccounted_ns_per_ref": "ns/ref",
		"sweep.overlap":                 "ratio",
		"sweep.cpu_util":                "ratio",
		"sweep.allocs_per_ref":          "count/ref",
		"sweep.alloc_bytes_per_ref":     "B/ref",
		"telemetry.recorder_ns_per_ref": "ns/ref",
		"service.admit_ms":              "ms",
		"service.complete_ms":           "ms",
		"service.direct_sweep_ms":       "ms",
		"service.result_kb":             "KiB",
		"service.cache_hit_frac":        "ratio",
		"service.requests":              "count",
		"service.queue_wait_ms.p50":     "ms",
		"service.execution_ms.p50":      "ms",
		"service.cache_write_ms.p50":    "ms",
		"service.job_latency_ms.p50":    "ms",
	}
	for _, b := range blockSizes {
		m[fmt.Sprintf("multipass.block%d_ns_per_ref", b)] = "ns/ref"
		m[fmt.Sprintf("stackdist.block%d_ns_per_ref", b)] = "ns/ref"
	}
	return m
}()

// blockSizes are Table 1's block sizes, the per-group axis of the
// kernel cost tables.
var blockSizes = []int{2, 4, 8, 16, 32, 64}

// workload is one benchmark input set.  timed measures the end-to-end
// metrics; traced replays the same inputs layer by layer.
type workload struct {
	name   string
	timed  func(env *env) (*report, error)
	traced func(env *env) (*report, error)
}

var workloads = []workload{
	{"table7-grid", table7Grid.timed, table7Grid.traced},
	{"paper-point", paperPoint.timed, paperPoint.traced},
	{"sweepd-mix", mixTimed, mixTraced},
}

// env carries one invocation's settings.
type env struct {
	workload string
	seed     int
	seconds  float64
	// scratch is a private directory under the build directory, removed
	// on exit; spans is where a traced run writes its spans.
	scratch string
	spans   string
}

func main() {
	name := flag.String("workload", "", "workload: table7-grid, paper-point or sweepd-mix")
	seed := flag.Int("seed", 1, "input seed (non-negative)")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// buildDir holds everything a run writes, scratch directories and span
// files; run.sh builds into it too.
const buildDir = ".bench_build"

func run(name string, seed int, seconds float64, traced int) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", name)
	case seed < 0:
		return fmt.Errorf("seed %d is negative", seed)
	case seconds <= 0:
		return fmt.Errorf("seconds %g is not positive", seconds)
	case traced != 0 && traced != 1:
		return fmt.Errorf("trace %d is neither 0 nor 1", traced)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(buildDir, "perfbench-run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	e := &env{
		workload: name,
		seed:     seed,
		seconds:  seconds,
		scratch:  scratch,
		spans:    filepath.Join(buildDir, fmt.Sprintf("perfbench-spans-%s-seed%d.jsonl", name, seed)),
	}

	want := endToEnd
	measure := w.timed
	if traced == 1 {
		want, measure = perLayer, w.traced
	}
	rep, err := measure(e)
	if err != nil {
		return err
	}
	if err := checkNames(rep.Metrics, want); err != nil {
		return err
	}
	printMetrics(rep.Metrics)
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// checkNames verifies that a mode produced exactly its metric set with
// the declared units.
func checkNames(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s not measured", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

// printMetrics writes one human-readable line per metric.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// set records a metric under its declared unit.
func set(ms map[string]metric, name string, v float64) {
	unit, ok := endToEnd[name]
	if !ok {
		unit = perLayer[name]
	}
	ms[name] = metric{Value: v, Unit: unit}
}
