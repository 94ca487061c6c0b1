// Observability contracts of the HTTP front end: the /metrics
// Prometheus exposition and the per-job span stream.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"subcache/internal/faultinject"
	"subcache/internal/sweep"
	"subcache/internal/telemetry"
)

// TestServiceMetricsEndpoint scrapes /metrics after a real sweep and
// holds it to the strict exposition grammar, with the service-level
// latency histograms present and coherent.
func TestServiceMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	if code, resp := post(t, ts, smallRequest(4000), true); code != http.StatusOK {
		t.Fatalf("submit: code %d (%s)", code, resp.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Fatalf("/metrics content type %q, want %q", ct, telemetry.PromContentType)
	}
	st, err := telemetry.ValidatePromText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics fails strict validation: %v\n%s", err, body)
	}
	if st.Samples == 0 {
		t.Fatal("/metrics served an empty exposition")
	}
	for _, want := range []string{
		"sweepd_build_info{",
		"# TYPE sweepd_job_queue_wait_seconds histogram",
		"sweepd_job_queue_wait_seconds_bucket",
		"# TYPE sweepd_job_execution_seconds histogram",
		"# TYPE sweepd_journal_append_seconds histogram",
		"sweepd_requests_admitted_total 1",
		"sweepd_workers 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServiceStatsCarriesVersionAndHists: /v1/stats reports the build
// version and the histogram snapshots the load harness consumes.
func TestServiceStatsCarriesVersionAndHists(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if code, resp := post(t, ts, smallRequest(4000), true); code != http.StatusOK {
		t.Fatalf("submit: code %d (%s)", code, resp.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Version   string              `json:"version"`
		Telemetry *telemetry.Snapshot `json:"telemetry"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Version == "" {
		t.Error("/v1/stats missing version")
	}
	if stats.Telemetry == nil {
		t.Fatal("/v1/stats missing telemetry snapshot")
	}
	for _, h := range []telemetry.Hist{telemetry.HistQueueWait, telemetry.HistExecution, telemetry.HistJobLatency, telemetry.HistJournalAppend} {
		hs := stats.Telemetry.Hist(h)
		if hs == nil || hs.Count == 0 {
			t.Errorf("histogram %s absent or empty after a completed job", h)
		}
	}
}

// TestJournalAppendTimed: every job-journal append -- the record's
// write and fsync -- is one journal_append observation, so after a
// completed job the histogram's count equals the records in the
// journal file, at least the job's admitted and completed ones.
func TestJournalAppendTimed(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, Dir: dir})
	if code, resp := post(t, ts, smallRequest(4000), true); code != http.StatusOK {
		t.Fatalf("submit: code %d (%s)", code, resp.Error)
	}
	// The completed record may land just after the reply.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var records int
		if b, err := os.ReadFile(filepath.Join(dir, "jobs.jsonl")); err == nil {
			if st, err := ValidateJournal(bytes.NewReader(b)); err == nil {
				records = st.Records
			}
		}
		var appends uint64
		if h := s.Stats().Hist(telemetry.HistJournalAppend); h != nil {
			appends = h.Count
		}
		if records >= 2 && appends == uint64(records) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal_append count %d, journal records %d: want equal, at least 2", appends, records)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTerminalJobReleasesTelemetry: a done job leaves the job table,
// its result served from the store, and a failed job, which stays for
// its 409, keeps no closed recorder, recorder sink and write buffer, or
// spans.
func TestTerminalJobReleasesTelemetry(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Workers: 1,
		SweepHook: func(_ context.Context, req *sweep.Request, _ string, _ int) {
			if req.Refs == 4001 {
				req.Hooks = faultinject.SourceHooks("OPSYS", faultinject.SourcePanic, 500)
			}
		},
	})
	code, done := post(t, ts, smallRequest(4000), true)
	if code != http.StatusOK {
		t.Fatalf("submit: code %d (%s)", code, done.Error)
	}
	code, failed := post(t, ts, smallRequest(4001), true)
	if code != http.StatusConflict {
		t.Fatalf("panicking submit: code %d (%s), want 409", code, failed.Error)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[done.ID]; ok {
		t.Errorf("done job %s still in the job table", done.ID)
	}
	j := s.jobs[failed.ID]
	if j == nil {
		t.Fatalf("failed job %s not kept", failed.ID)
	}
	if j.rec != nil || j.span != nil || j.qspan != nil {
		t.Errorf("failed job still holds telemetry: rec %p, span %p, qspan %p", j.rec, j.span, j.qspan)
	}
}

// TestServiceJobStreamHasSpans: a completed job's event stream carries
// the span lifecycle and passes full stream validation (nesting,
// point-done reconciliation) -- the same check eventcheck -spans runs.
func TestServiceJobStreamHasSpans(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, sub := post(t, ts, smallRequest(4000), true)
	if code != http.StatusOK {
		t.Fatalf("submit: code %d (%s)", code, sub.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.ValidateStream(strings.NewReader(string(stream)))
	if err != nil {
		t.Fatalf("job stream invalid: %v", err)
	}
	if st.ByType[telemetry.EventSpanStart] == 0 ||
		st.ByType[telemetry.EventSpanStart] != st.ByType[telemetry.EventSpanEnd] {
		t.Fatalf("span events unbalanced: start=%d end=%d",
			st.ByType[telemetry.EventSpanStart], st.ByType[telemetry.EventSpanEnd])
	}
	// The job lifecycle spans must be present and trace-stamped.
	for _, name := range []string{`"name":"job"`, `"name":"queue"`, `"name":"attempt"`, `"name":"cache-write"`, `"trace":"` + sub.ID + `"`} {
		if !strings.Contains(string(stream), name) {
			t.Errorf("job stream missing %s", name)
		}
	}
}
