// Durability tests: crash recovery through the job journal, the
// verified result store's corruption quarantine and eviction policies,
// per-job deadlines, transient retries, and readiness.  The
// process-level SIGKILL campaign lives in internal/faultinject; these
// tests cover the same contracts in-process, where each mechanism can
// be exercised and asserted in isolation.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"subcache/internal/faultinject"
	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
)

// shutdownNow drains a server immediately (expired grace) so a test
// can restart over the same data dir.
func shutdownNow(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

// getReady fetches /readyz and returns the status code and body.
func getReady(t *testing.T, ts *httptest.Server) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// resultOf decodes a response's Result payload.
func resultOf(t *testing.T, raw json.RawMessage) Result {
	t.Helper()
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	return res
}

// TestCrashRecoveryReplay is the in-process half of the kill-restart
// proof: a journal holding an admitted-but-never-finished job (exactly
// what a SIGKILL leaves behind) makes the next server re-admit it, run
// it to completion, and report "recovering" on /readyz until it is
// done.
func TestCrashRecoveryReplay(t *testing.T) {
	dir := t.TempDir()
	wire := smallRequest(3000)

	// Resolve the fingerprint the service will assign.
	s0, ts0 := newTestServer(t, Options{Workers: 1})
	_, fp, err := s0.resolve(&wire)
	if err != nil {
		t.Fatal(err)
	}
	shutdownNow(t, s0, ts0)

	// Forge the crash: an admitted record with no terminal transition,
	// as submit would have journaled it just before the power went out,
	// followed by the "started" record older servers wrote next, which
	// replay skips.
	raw, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, filepath.Join(dir, "jobs.jsonl"),
		JournalRecord{Kind: KindAdmitted, FP: fp, Tenant: "crashed", Req: raw},
		JournalRecord{Kind: "started", FP: fp},
	)

	hook, started, release := blockingHook()
	s, ts := newTestServer(t, Options{Dir: dir, Workers: 1, SweepHook: hook})

	// The job is re-admitted and starts running; until it finishes the
	// server is alive (healthz) but not ready (readyz).
	if got := <-started; got != fp {
		t.Fatalf("recovered job fp %s, want %s", got, fp)
	}
	if n := s.Recovering(); n != 1 {
		t.Fatalf("Recovering() = %d, want 1", n)
	}
	if code, body := getReady(t, ts); code != http.StatusServiceUnavailable || !strings.Contains(body, "recovering") {
		t.Fatalf("/readyz during recovery: %d %q, want 503 recovering", code, body)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during recovery: %d, want 200 (liveness is not readiness)", hresp.StatusCode)
	}

	// A client polling the crashed id lands on the re-admitted job via
	// the ordinary singleflight path.
	st, err := http.Get(ts.URL + "/v1/sweeps/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	var stResp SubmitResponse
	json.NewDecoder(st.Body).Decode(&stResp)
	st.Body.Close()
	if st.StatusCode != http.StatusAccepted || stResp.Status != string(StatusRunning) {
		t.Fatalf("polling recovered id: %d %q, want 202 running", st.StatusCode, stResp.Status)
	}

	close(release)
	code, resp := post(t, ts, wire, true)
	if code != http.StatusOK {
		t.Fatalf("joining recovered job: code %d (%s %s)", code, resp.Status, resp.Error)
	}
	if n := s.Recovering(); n != 0 {
		t.Fatalf("Recovering() = %d after completion, want 0", n)
	}
	if code, _ := getReady(t, ts); code != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d, want 200", code)
	}
	if got := s.Stats().Counter(telemetry.JobsRecovered); got != 1 {
		t.Errorf("jobs_recovered = %d, want 1", got)
	}

	// Recovered-and-completed results match a clean run bit for bit.
	_, ts2 := newTestServer(t, Options{Workers: 1})
	code, clean := post(t, ts2, wire, true)
	if code != http.StatusOK {
		t.Fatal("clean run failed")
	}
	if !reflect.DeepEqual(resultOf(t, resp.Result).Points, resultOf(t, clean.Result).Points) {
		t.Fatal("recovered result differs from an uninterrupted run")
	}
}

// TestJournalReplaysLegacyRequest: a job journal written before sweepd
// dropped its engine and shards request fields still replays.  The
// admitted record below is verbatim what such a server wrote, checksum
// included; it must validate, and its job must recover and complete on
// the default engine, one trace pass per workload.
func TestJournalReplaysLegacyRequest(t *testing.T) {
	const fp = "eed81e8557f0a524"
	legacy := `{"v":1,"kind":"admitted","fp":"eed81e8557f0a524","tenant":"legacy",` +
		`"req":{"arch":"PDP-11","nets":[64],"refs":3000,"engine":"reference","shards":2},` +
		`"unix_ms":1760000000000,"sum":"02160e66c6f98962cd766464ed0d969d497338866ad099c52f0dc5c708f0de37"}` + "\n"
	if _, err := ValidateJournal(strings.NewReader(legacy)); err != nil {
		t.Fatalf("legacy record invalid: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Options{Dir: dir, Workers: 1})
	if got := s.Stats().Counter(telemetry.JobsRecovered); got != 1 {
		t.Fatalf("jobs_recovered = %d, want 1", got)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + fp + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	var out SubmitResponse
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered job: code %d (%s %s), want 200", resp.StatusCode, out.Status, out.Error)
	}
	if got, want := resultOf(t, out.Result).TracePasses, len(synth.Workloads(synth.PDP11)); got != want {
		t.Errorf("trace_passes = %d, want %d (the default engine, not the record's reference)", got, want)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ValidateJournal(f); err != nil {
		t.Errorf("journal after replay invalid: %v", err)
	}
}

// TestRecoveryFailsRepeatedNet: a journaled job whose request names a
// net size twice, as a server that passed the list through admitted
// it, no longer resolves.  Recovery journals it failed, naming the
// repeat, instead of re-admitting it.
func TestRecoveryFailsRepeatedNet(t *testing.T) {
	const fp = "4795a61b00000000"
	rec := JournalRecord{V: JournalVersion, Kind: KindAdmitted, FP: fp, Tenant: "t",
		Req: json.RawMessage(`{"arch":"PDP-11","nets":[64,64],"refs":3000}`), UnixMS: 1760000000000}
	sum, err := rec.sum()
	if err != nil {
		t.Fatal(err)
	}
	rec.Sum = sum
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Options{Dir: dir, Workers: 1})
	if got := s.Stats().Counter(telemetry.JobsRecovered); got != 0 {
		t.Errorf("jobs_recovered = %d, want 0", got)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET the unresolvable job: code %d, want 404", resp.StatusCode)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateJournal(bytes.NewReader(data)); err != nil {
		t.Errorf("journal after recovery invalid: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var last JournalRecord
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != KindFailed || last.FP != fp || !strings.Contains(last.Error, "net size 64 named twice") {
		t.Errorf("last journal record %+v, want %s failed naming the repeated net", last, fp)
	}
}

// TestDrainThenRestart extends the drain contract across a restart: a
// gracefully drained job was journaled canceled -- the client was told
// -- so the next server over the same dir must NOT resurrect it, must
// be ready immediately, and must resume the job's checkpoint only when
// a client actually resubmits.
func TestDrainThenRestart(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Dir: dir, Workers: 1})
	req := smallRequest(400000)

	code, resp := post(t, ts, req, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	fp := resp.ID
	ckpt := s.store.checkpointPath(fp)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(ckpt); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint journal never gained a record")
		}
		time.Sleep(2 * time.Millisecond)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(expired)
	ts.Close()

	s2, ts2 := newTestServer(t, Options{Dir: dir, Workers: 1})
	// Canceled is terminal: no resurrection, no recovery window.
	if n := s2.Recovering(); n != 0 {
		t.Fatalf("Recovering() = %d after graceful drain, want 0 (canceled is terminal)", n)
	}
	if code, _ := getReady(t, ts2); code != http.StatusOK {
		t.Fatalf("/readyz after drained restart: %d, want 200", code)
	}
	if got := s2.Stats().Counter(telemetry.JobsRecovered); got != 0 {
		t.Errorf("jobs_recovered = %d after graceful drain, want 0", got)
	}

	// The checkpoint still pays off -- but only when asked.
	code, resumed := post(t, ts2, req, true)
	if code != http.StatusOK {
		t.Fatalf("resubmit: code %d (%s)", code, resumed.Error)
	}
	if res := resultOf(t, resumed.Result); res.Resumed == 0 {
		t.Fatal("resubmission after drained restart resumed 0 workloads")
	}
}

// TestCacheCorruptionQuarantine proves a damaged cache entry is never
// served: whatever the damage -- a flipped bit, a torn write, a
// fingerprint swap -- the entry is quarantined into cache/corrupt/,
// counted, and the request transparently re-simulated to the same
// measurements.
func TestCacheCorruptionQuarantine(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func(t *testing.T, data []byte, fp string) []byte
	}{
		{"bit flip", func(_ *testing.T, data []byte, _ string) []byte {
			return faultinject.FlipByte(data, len(data)-10)
		}},
		{"torn write", func(_ *testing.T, data []byte, _ string) []byte {
			return faultinject.TruncateTail(data, 7)
		}},
		{"fingerprint mismatch", func(t *testing.T, data []byte, _ string) []byte {
			// A checksum-valid envelope under the wrong fingerprint: the
			// payload sum alone would pass; the fp binding must not.
			var env struct {
				V       int             `json:"v"`
				FP      string          `json:"fp"`
				Written int64           `json:"written_unix_ms"`
				Sum     string          `json:"sum"`
				Payload json.RawMessage `json:"payload"`
			}
			if err := json.Unmarshal(data, &env); err != nil {
				t.Fatal(err)
			}
			env.FP = "somebody-else"
			b, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}
	for i, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			req := smallRequest(3000 + i)
			s, ts := newTestServer(t, Options{Dir: dir, Workers: 1})
			code, first := post(t, ts, req, true)
			if code != http.StatusOK {
				t.Fatalf("seed run: code %d", code)
			}
			fp := first.ID
			shutdownNow(t, s, ts)

			path := s.store.path(fp)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(t, data, fp), 0o644); err != nil {
				t.Fatal(err)
			}

			s2, ts2 := newTestServer(t, Options{Dir: dir, Workers: 1})
			code, resp := post(t, ts2, req, true)
			if code != http.StatusOK {
				t.Fatalf("resubmit over corrupt cache: code %d (%s)", code, resp.Error)
			}
			if resp.Cached {
				t.Fatal("corrupt cache entry was served")
			}
			if !reflect.DeepEqual(resultOf(t, resp.Result).Points, resultOf(t, first.Result).Points) {
				t.Fatal("re-simulated result differs from the original")
			}
			if got := s2.Stats().Counter(telemetry.CacheCorruptQuarantined); got != 1 {
				t.Errorf("cache_corrupt_quarantined = %d, want 1", got)
			}
			if h := s2.Stats().Hist(telemetry.HistCacheRead); h == nil || h.Count != 1 {
				t.Errorf("cache_read = %+v, want one read: the corrupt entry's", h)
			}
			des, err := os.ReadDir(filepath.Join(dir, "cache", "corrupt"))
			if err != nil || len(des) != 1 {
				t.Fatalf("quarantine dir: %v entries, err %v; want exactly 1 entry", len(des), err)
			}
			// The rewritten entry is healthy: the next submit is a hit.
			if code, again := post(t, ts2, req, false); code != http.StatusOK || !again.Cached {
				t.Fatalf("post-quarantine resubmit: code %d cached=%v, want 200 cache hit", code, again.Cached)
			}
		})
	}
}

// TestCacheTTLEviction proves expiry end to end: a result older than
// the TTL is evicted (checkpoint included) and counted, its id answers
// 404, and the next request re-simulates it identically.  The journal
// records only the two admissions and completions.
func TestCacheTTLEviction(t *testing.T) {
	dir := t.TempDir()
	ttl := 200 * time.Millisecond
	s, ts := newTestServer(t, Options{Dir: dir, Workers: 1, CacheTTL: ttl})
	req := smallRequest(2500)

	code, first := post(t, ts, req, true)
	if code != http.StatusOK {
		t.Fatalf("seed run: code %d", code)
	}
	fp := first.ID
	if code, hit := post(t, ts, req, false); code != http.StatusOK || !hit.Cached {
		t.Fatalf("fresh entry: code %d cached=%v, want cache hit", code, hit.Cached)
	}

	time.Sleep(ttl + 250*time.Millisecond)
	if code := getCode(t, ts, fp); code != http.StatusNotFound {
		t.Fatalf("GET of the expired id: code %d, want 404", code)
	}
	code, resp := post(t, ts, req, true)
	if code != http.StatusOK {
		t.Fatalf("post-TTL submit: code %d (%s)", code, resp.Error)
	}
	if resp.Cached {
		t.Fatal("expired cache entry was served")
	}
	if !reflect.DeepEqual(resultOf(t, resp.Result).Points, resultOf(t, first.Result).Points) {
		t.Fatal("re-simulated result differs from the original")
	}
	if got := s.Stats().Counter(telemetry.CacheEvictions); got == 0 {
		t.Error("cache_evictions = 0 after TTL expiry")
	}
	// TTL reclamation takes the checkpoint journal with it, so the
	// post-TTL run re-simulated from scratch.
	if res := resultOf(t, resp.Result); res.Resumed != 0 {
		t.Errorf("post-TTL run resumed %d workloads, want 0 (checkpoint reclaimed)", res.Resumed)
	}
	jf, err := os.Open(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	st, err := ValidateJournal(jf)
	if err != nil {
		t.Fatalf("journal invalid: %v", err)
	}
	if want := map[string]int{KindAdmitted: 2, KindCompleted: 2}; !reflect.DeepEqual(st.ByKind, want) {
		t.Errorf("journal records %v, want %v", st.ByKind, want)
	}
}

// TestCacheSizeCapLRU proves the size cap: with a cap too small for
// two entries, completing a second sweep evicts the least-recently-used
// first one -- but keeps its checkpoint journal, so re-requesting it
// resumes instead of re-simulating.  The cap bounds what done jobs
// hold: they leave the job table, and the evicted id answers 404.
func TestCacheSizeCapLRU(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, CacheMaxBytes: 1})
	reqA, reqB := smallRequest(2600), smallRequest(2601)

	code, firstA := post(t, ts, reqA, true)
	if code != http.StatusOK {
		t.Fatalf("A: code %d", code)
	}
	if code, _ := post(t, ts, reqB, true); code != http.StatusOK {
		t.Fatalf("B: code %d", code)
	}
	if got := s.Stats().Counter(telemetry.CacheEvictions); got != 1 {
		t.Fatalf("cache_evictions = %d after second entry, want 1", got)
	}
	if entries, _ := s.store.stats(); entries != 1 {
		t.Fatalf("store holds %d entries over a 1-byte cap, want 1", entries)
	}
	s.mu.Lock()
	held := len(s.jobs)
	s.mu.Unlock()
	if held != 0 {
		t.Fatalf("job table holds %d jobs after both finished, want 0", held)
	}
	if code := getCode(t, ts, firstA.ID); code != http.StatusNotFound {
		t.Fatalf("GET of the evicted id: code %d, want 404", code)
	}

	// A's result is gone but its checkpoint survived: the re-request
	// resumes every workload and reproduces the measurements.
	code, again := post(t, ts, reqA, true)
	if code != http.StatusOK {
		t.Fatalf("A again: code %d", code)
	}
	if again.Cached {
		t.Fatal("evicted entry was served as a cache hit")
	}
	res := resultOf(t, again.Result)
	if res.Resumed == 0 {
		t.Error("size-cap eviction lost the checkpoint journal: resumed 0 workloads")
	}
	if !reflect.DeepEqual(res.Points, resultOf(t, firstA.Result).Points) {
		t.Fatal("resumed result differs from the original")
	}
}

// TestJobTimeout proves the per-request deadline: a sweep that cannot
// finish inside timeout_sec fails with a deadline error (not a drain
// cancellation), leaving its checkpoint for a later retry.
func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := smallRequest(1_500_000)
	req.TimeoutSec = 0.05

	code, resp := post(t, ts, req, true)
	if code != http.StatusConflict {
		t.Fatalf("timed-out job: code %d (%s %s), want 409", code, resp.Status, resp.Error)
	}
	if resp.Status != string(StatusFailed) {
		t.Fatalf("timed-out job status %q, want failed", resp.Status)
	}
	if !strings.Contains(resp.Error, "deadline exceeded") {
		t.Fatalf("timed-out job error %q does not name the deadline", resp.Error)
	}

	// Validation bounds the field itself.
	bad := smallRequest(1000)
	bad.TimeoutSec = -1
	if code, _ := post(t, ts, bad, false); code != http.StatusBadRequest {
		t.Fatalf("negative timeout_sec: code %d, want 400", code)
	}
}

// TestTransientRetry proves the retry policy end to end: a trace-source
// failure on the first attempt is retried with backoff and succeeds
// (resuming checkpointed workloads), while a panic is never retried.
func TestTransientRetry(t *testing.T) {
	t.Run("transient io retries", func(t *testing.T) {
		var attempts atomic.Int32
		s, ts := newTestServer(t, Options{
			Workers: 1, MaxRetries: 2, RetryBackoff: time.Millisecond,
			SweepHook: func(_ context.Context, req *sweep.Request, fp string, attempt int) {
				attempts.Add(1)
				if attempt == 0 {
					req.Hooks = faultinject.SourceHooks("OPSYS", faultinject.ShortRead, 500)
				} else {
					req.Hooks = nil
				}
			},
		})
		req := smallRequest(3000)
		code, resp := post(t, ts, req, true)
		if code != http.StatusOK {
			t.Fatalf("retried job: code %d (%s %s), want 200", code, resp.Status, resp.Error)
		}
		if got := attempts.Load(); got != 2 {
			t.Errorf("sweep attempts = %d, want 2 (fail, retry, done)", got)
		}
		if got := s.Stats().Counter(telemetry.JobRetries); got != 1 {
			t.Errorf("job_retries = %d, want 1", got)
		}
		// The retried result matches a clean, never-faulted run.
		_, ts2 := newTestServer(t, Options{Workers: 1})
		code, clean := post(t, ts2, req, true)
		if code != http.StatusOK {
			t.Fatal("clean run failed")
		}
		if !reflect.DeepEqual(resultOf(t, resp.Result).Points, resultOf(t, clean.Result).Points) {
			t.Fatal("retried result differs from a clean run")
		}
	})

	t.Run("panic does not retry", func(t *testing.T) {
		var attempts atomic.Int32
		s, ts := newTestServer(t, Options{
			Workers: 1, MaxRetries: 2, RetryBackoff: time.Millisecond,
			SweepHook: func(_ context.Context, req *sweep.Request, fp string, attempt int) {
				attempts.Add(1)
				req.Hooks = faultinject.SourceHooks("OPSYS", faultinject.SourcePanic, 500)
			},
		})
		code, resp := post(t, ts, smallRequest(3100), true)
		if code != http.StatusConflict || resp.Status != string(StatusFailed) {
			t.Fatalf("panicked job: code %d status %q, want 409 failed", code, resp.Status)
		}
		if got := attempts.Load(); got != 1 {
			t.Errorf("sweep attempts = %d, want 1 (panics are not transient)", got)
		}
		if got := s.Stats().Counter(telemetry.JobRetries); got != 0 {
			t.Errorf("job_retries = %d, want 0", got)
		}
	})
}

// TestReadyzDraining: a draining server stays live but reports not
// ready, so a balancer stops routing to it before the listener closes.
func TestReadyzDraining(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	if code, _ := getReady(t, ts); code != http.StatusOK {
		t.Fatalf("/readyz on an idle server: %d, want 200", code)
	}
	s.BeginDrain()
	code, body := getReady(t, ts)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz while draining: %d %q, want 503 draining", code, body)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: %d, want 200", hresp.StatusCode)
	}
}

// getCode answers the status code of GET /v1/sweeps/{id}.
func getCode(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
