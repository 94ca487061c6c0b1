package telemetry

import (
	"strings"
	"testing"
)

// promTestSnapshot builds a small fixed snapshot whose exposition is
// fully deterministic (histograms built from fixed observations).
func promTestSnapshot() *Snapshot {
	var qw, sim Histogram
	qw.Observe(0)
	qw.Observe(1000)
	qw.Observe(1000)
	sim.Observe(500_000_000)
	return &Snapshot{
		Counters: map[string]uint64{"cache_hits": 7},
		Gauges:   map[string]int64{"active_workloads": 2},
		Hists: map[string]*HistSnap{
			"job_queue_wait": qw.Snap(),
			"stage_simulate": sim.Snap(),
		},
	}
}

// TestWritePromTextGolden pins the exposition byte-for-byte: ordering,
// HELP/TYPE grammar, unit conversions (nanos->seconds), cumulative
// buckets and the build-info labels.  A diff here is a contract change
// for every scraper.
func TestWritePromTextGolden(t *testing.T) {
	var b strings.Builder
	err := WritePromText(&b, "test", promTestSnapshot(),
		map[string]float64{"workers": 4},
		map[string]string{"version": "v1.2.3", "goos": "linux"})
	if err != nil {
		t.Fatal(err)
	}
	const want = `# HELP test_build_info Build information as labels; value is always 1.
# TYPE test_build_info gauge
test_build_info{goos="linux",version="v1.2.3"} 1
# HELP test_cache_hits_total Monotonic counter cache_hits (see docs/OBSERVABILITY.md).
# TYPE test_cache_hits_total counter
test_cache_hits_total 7
# HELP test_active_workloads Instantaneous value (see docs/OBSERVABILITY.md).
# TYPE test_active_workloads gauge
test_active_workloads 2
# HELP test_workers Instantaneous value (see docs/OBSERVABILITY.md).
# TYPE test_workers gauge
test_workers 4
# HELP test_job_queue_wait_seconds Latency distribution of job_queue_wait (log2 buckets).
# TYPE test_job_queue_wait_seconds histogram
test_job_queue_wait_seconds_bucket{le="1e-09"} 1
test_job_queue_wait_seconds_bucket{le="1.024e-06"} 3
test_job_queue_wait_seconds_bucket{le="+Inf"} 3
test_job_queue_wait_seconds_sum 2e-06
test_job_queue_wait_seconds_count 3
# HELP test_stage_simulate_seconds Latency distribution of stage_simulate (log2 buckets).
# TYPE test_stage_simulate_seconds histogram
test_stage_simulate_seconds_bucket{le="0.536870912"} 1
test_stage_simulate_seconds_bucket{le="+Inf"} 1
test_stage_simulate_seconds_sum 0.5
test_stage_simulate_seconds_count 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWritePromTextRoundTrip feeds the writer's own output to the
// strict parser: producer and consumer must agree on the grammar.
func TestWritePromTextRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WritePromText(&b, "test", promTestSnapshot(),
		map[string]float64{"workers": 4},
		map[string]string{"version": `quo"te\back`, "go_version": "go1.x"}); err != nil {
		t.Fatal(err)
	}
	st, err := ValidatePromText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own exposition rejected: %v\n%s", err, b.String())
	}
	if st.Families != 6 {
		t.Errorf("families = %d, want 6", st.Families)
	}
	if st.Samples != 13 || st.Series != 13 {
		t.Errorf("samples/series = %d/%d, want 13/13", st.Samples, st.Series)
	}
}

// TestWritePromTextEmptySnapshot: a freshly started server must still
// expose a parseable page.
func TestWritePromTextEmptySnapshot(t *testing.T) {
	var b strings.Builder
	if err := WritePromText(&b, "test", &Snapshot{Counters: map[string]uint64{}}, nil,
		map[string]string{"version": "dev"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePromText(strings.NewReader(b.String())); err != nil {
		t.Fatalf("empty-snapshot exposition rejected: %v\n%s", err, b.String())
	}
}

func TestValidatePromTextRejects(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{
			"non-cumulative buckets",
			"# TYPE h histogram\n" +
				"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"0.2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"cumulative",
		},
		{
			"missing +Inf bucket",
			"# TYPE h histogram\n" +
				"h_bucket{le=\"0.1\"} 5\nh_sum 1\nh_count 5\n",
			"+Inf",
		},
		{
			"+Inf disagrees with count",
			"# TYPE h histogram\n" +
				"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n",
			"count",
		},
		{
			"missing sum",
			"# TYPE h histogram\n" +
				"h_bucket{le=\"+Inf\"} 5\nh_count 5\n",
			"sum",
		},
		{
			"duplicate series",
			"# TYPE c counter\nc 1\nc 2\n",
			"duplicate series",
		},
		{
			"reopened family",
			"# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n",
			"contiguous",
		},
		{
			"second TYPE",
			"# TYPE a counter\n# TYPE a gauge\na 1\n",
			"second TYPE",
		},
		{
			"TYPE after samples",
			"a 1\n# TYPE a counter\na{x=\"1\"} 1\n",
			"after its samples",
		},
		{
			"bad metric name",
			"1badname 3\n",
			"bad metric name",
		},
		{
			"unquoted label value",
			"a{x=unquoted} 1\n",
			"not quoted",
		},
		{
			"bad value",
			"a one\n",
			"bad sample value",
		},
		{
			"unknown type",
			"# TYPE a sparkline\na 1\n",
			"unknown type",
		},
		{
			"le not increasing",
			"# TYPE h histogram\n" +
				"h_bucket{le=\"0.2\"} 1\nh_bucket{le=\"0.1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
			"increasing",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ValidatePromText(strings.NewReader(c.text))
			if err == nil {
				t.Fatalf("accepted invalid exposition:\n%s", c.text)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestValidatePromTextAcceptsBenign(t *testing.T) {
	// Stray comments, timestamps, escapes, untyped samples.
	text := "# just a comment\n" +
		"# HELP a A counter.\n# TYPE a counter\na 1 1700000000000\n" +
		"b{msg=\"line\\nbreak \\\"q\\\" back\\\\slash\"} 2\n"
	st, err := ValidatePromText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("rejected benign exposition: %v", err)
	}
	if st.Samples != 2 {
		t.Fatalf("samples = %d, want 2", st.Samples)
	}
}
