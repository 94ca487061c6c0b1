package telemetry

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestHistogramConcurrentExact is the conservation gate the histogram
// doc comment promises: many goroutines hammering one histogram produce
// exactly the counts, sum, max and per-bucket tallies that a serial
// replay of the same observations produces, under -race.
func TestHistogramConcurrentExact(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10_000
	)
	// Pre-generate the observation sets so the serial reference replays
	// the identical values.
	vals := make([][]uint64, goroutines)
	rng := rand.New(rand.NewSource(42))
	for g := range vals {
		vals[g] = make([]uint64, perG)
		for i := range vals[g] {
			switch rng.Intn(4) {
			case 0:
				vals[g][i] = 0
			case 1:
				vals[g][i] = uint64(rng.Intn(1000))
			case 2:
				vals[g][i] = uint64(rng.Int63n(int64(time.Minute)))
			default:
				vals[g][i] = overflowLo + uint64(rng.Int63())
			}
		}
	}

	var concurrent, serial Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(obs []uint64) {
			defer wg.Done()
			for _, v := range obs {
				concurrent.Observe(v)
			}
		}(vals[g])
	}
	wg.Wait()
	for _, obs := range vals {
		for _, v := range obs {
			serial.Observe(v)
		}
	}

	got, want := concurrent.Snap(), serial.Snap()
	if got == nil || want == nil {
		t.Fatalf("nil snapshot: got=%v want=%v", got, want)
	}
	if got.Count != want.Count || got.SumNanos != want.SumNanos || got.MaxNanos != want.MaxNanos {
		t.Fatalf("totals diverge: got {%d %d %d} want {%d %d %d}",
			got.Count, got.SumNanos, got.MaxNanos, want.Count, want.SumNanos, want.MaxNanos)
	}
	if len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("bucket sets diverge: got %v want %v", got.Buckets, want.Buckets)
	}
	var total uint64
	for i, b := range got.Buckets {
		if b != want.Buckets[i] {
			t.Fatalf("bucket %d diverges: got %+v want %+v", i, b, want.Buckets[i])
		}
		total += b.N
	}
	if total != got.Count {
		t.Fatalf("bucket counts sum to %d, count is %d", total, got.Count)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	cases := []struct {
		ns uint64
		lo uint64
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 4},
		{1023, 512},
		{1024, 1024},
		{overflowLo - 1, overflowLo / 2},
		{overflowLo, overflowLo},
		{math.MaxUint64, overflowLo},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.ns)
		s := h.Snap()
		if len(s.Buckets) != 1 || s.Buckets[0].LoNanos != c.lo {
			t.Errorf("Observe(%d): buckets %v, want single bucket lo=%d", c.ns, s.Buckets, c.lo)
		}
		if hi := s.Buckets[0].hi(); c.ns >= hi && c.lo < overflowLo {
			t.Errorf("Observe(%d): landed in [%d,%d), above its bound", c.ns, c.lo, hi)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	// Empty: nil snapshot, zero quantiles.
	var empty Histogram
	if s := empty.Snap(); s != nil {
		t.Fatalf("empty histogram snapped to %+v, want nil", s)
	}
	var nilSnap *HistSnap
	if q := nilSnap.Quantile(0.5); q != 0 {
		t.Fatalf("nil snapshot Quantile = %v, want 0", q)
	}
	if m := nilSnap.MeanNanos(); m != 0 {
		t.Fatalf("nil snapshot MeanNanos = %v, want 0", m)
	}

	// Single observation: every quantile is clamped to the exact max.
	var one Histogram
	one.Observe(700)
	s := one.Snap()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := s.Quantile(q); v != 700 {
			t.Errorf("single-value Quantile(%v) = %v, want 700 (exact max)", q, v)
		}
	}

	// All observations in one bucket: quantiles stay inside [lo, max].
	var same Histogram
	for i := 0; i < 100; i++ {
		same.Observe(600) // bucket [512, 1024)
	}
	s = same.Snap()
	for _, q := range []float64{0.01, 0.5, 0.95} {
		if v := s.Quantile(q); v < 512 || v > 600 {
			t.Errorf("one-bucket Quantile(%v) = %v, want within [512, 600]", q, v)
		}
	}

	// Overflow bucket: interpolation is bounded by the exact max, not
	// the (unbounded) bucket.
	var over Histogram
	over.Observe(overflowLo + 12345)
	s = over.Snap()
	if v := s.Quantile(0.5); v != float64(overflowLo+12345) {
		t.Errorf("overflow Quantile(0.5) = %v, want exact max %d", v, overflowLo+12345)
	}

	// Out-of-range q clamps.
	if v := s.Quantile(-1); v <= 0 {
		t.Errorf("Quantile(-1) = %v, want clamped positive", v)
	}
	if v, max := s.Quantile(2), float64(overflowLo+12345); v != max {
		t.Errorf("Quantile(2) = %v, want max %v", v, max)
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		h.Observe(uint64(rng.Int63n(int64(10 * time.Second))))
	}
	s := h.Snap()
	prev := 0.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v: quantiles must be monotone", q, v, prev)
		}
		prev = v
	}
	if p100 := s.Quantile(1); p100 != float64(s.MaxNanos) {
		t.Fatalf("Quantile(1) = %v, want exact max %d", p100, s.MaxNanos)
	}
}

func TestHistogramObserveDurClampsNegative(t *testing.T) {
	var h Histogram
	h.ObserveDur(-time.Second)
	s := h.Snap()
	if s.Count != 1 || s.SumNanos != 0 || len(s.Buckets) != 1 || s.Buckets[0].LoNanos != 0 {
		t.Fatalf("negative duration recorded as %+v, want one zero observation", s)
	}
}

// TestHistNames pins every histogram's wire name: the keys of
// Snapshot.Hists, which /v1/stats, RUN.json, heartbeats and the load
// harness read, and the /metrics family names derive from.
func TestHistNames(t *testing.T) {
	want := []struct {
		h    Hist
		name string
	}{
		{StageTraceRead, "stage_trace_read"},
		{StageDecode, "stage_decode"},
		{StageBroadcast, "stage_broadcast"},
		{StageSimulate, "stage_simulate"},
		{StageFlush, "stage_flush"},
		{StageCheckpoint, "stage_checkpoint"},
		{HistQueueWait, "job_queue_wait"},
		{HistExecution, "job_execution"},
		{HistRetryBackoff, "job_retry_backoff"},
		{HistCacheRead, "cache_read"},
		{HistCacheWrite, "cache_write"},
		{HistJobLatency, "job_latency"},
		{HistJournalAppend, "journal_append"},
		{Hist(-1), "hist_unknown"},
		{numHists, "hist_unknown"},
	}
	if len(want) != int(numHists)+2 {
		t.Fatalf("table covers %d histograms, want all %d", len(want)-2, numHists)
	}
	for _, c := range want {
		if got := c.h.String(); got != c.name {
			t.Errorf("Hist(%d).String() = %q, want %q", int(c.h), got, c.name)
		}
	}
}
