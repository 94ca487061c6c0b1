// Service-level tests: the scheduling, dedup, caching, admission and
// drain contracts of the sweep daemon, exercised through the real HTTP
// front end (httptest) so every assertion covers the same path a
// client sees.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"subcache/internal/telemetry"
)

// newTestServer builds a Server over a temp dir plus an httptest front
// end, and registers an orderly shutdown.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 20 * time.Millisecond
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// smallRequest is quick to simulate: one net size, short traces.
func smallRequest(refs int) SweepRequest {
	return SweepRequest{Arch: "PDP-11", Nets: []int{64}, Refs: refs}
}

// post submits a request and decodes the response envelope.
func post(t *testing.T, ts *httptest.Server, req SweepRequest, wait bool) (int, SubmitResponse) {
	t.Helper()
	url := ts.URL + "/v1/sweeps"
	if wait {
		url += "?wait=1"
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

// TestServiceEndToEnd drives one sweep through submit, result, status,
// cache hit and event stream.
func TestServiceEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	req := smallRequest(5000)

	code, resp := post(t, ts, req, true)
	if code != http.StatusOK {
		t.Fatalf("submit: code %d (%s %s), want 200", code, resp.Status, resp.Error)
	}
	if resp.Cached || resp.Deduped {
		t.Fatalf("first submit reported cached=%v deduped=%v", resp.Cached, resp.Deduped)
	}
	var res Result
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.Fingerprint != resp.ID {
		t.Fatalf("result fingerprint %q != job id %q", res.Fingerprint, resp.ID)
	}
	if len(res.Points) == 0 || len(res.Points[0].Runs) == 0 {
		t.Fatalf("empty result: %+v", res)
	}

	// The identical request is a cache hit: no second simulation.
	code, hit := post(t, ts, req, false)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("duplicate submit: code %d cached=%v, want 200/true", code, hit.Cached)
	}
	if !bytes.Equal(hit.Result, resp.Result) {
		t.Fatal("cached result differs from the simulated one")
	}

	// Status endpoint agrees.
	st, err := http.Get(ts.URL + "/v1/sweeps/" + resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if st.StatusCode != http.StatusOK {
		t.Fatalf("status: code %d, want 200", st.StatusCode)
	}

	// The job's event stream is a valid versioned stream ending on the
	// terminal run-end event (ValidateStream rejects anything after it).
	f, err := os.Open(s.eventsPath(resp.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := telemetry.ValidateStream(f)
	if err != nil {
		t.Fatalf("event stream invalid: %v", err)
	}
	for _, want := range []string{telemetry.EventRunStart, telemetry.EventPointDone, telemetry.EventRunEnd} {
		if stats.ByType[want] == 0 {
			t.Errorf("event stream missing %q events: %v", want, stats.ByType)
		}
	}
	if stats.ByType[telemetry.EventRunEnd] != 1 {
		t.Errorf("stream has %d run-end events, want 1", stats.ByType[telemetry.EventRunEnd])
	}

	snap := s.Stats()
	if got := snap.Counter(telemetry.RequestsAdmitted); got != 1 {
		t.Errorf("requests_admitted = %d, want 1", got)
	}
	if got := snap.Counter(telemetry.CacheHits); got != 1 {
		t.Errorf("cache_hits = %d, want 1", got)
	}

	// Unknown ids are 404.
	nf, err := http.Get(ts.URL + "/v1/sweeps/no-such-sweep")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: code %d, want 404", nf.StatusCode)
	}
}

// TestSubmitValidation rejects malformed requests with 400 before any
// work is admitted.
func TestSubmitValidation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	bad := []SweepRequest{
		{Arch: "PDP-12", Nets: []int{64}, Refs: 1000},                              // unknown arch
		{Arch: "PDP-11", Nets: []int{64}, Refs: 0},                                 // refs out of range
		{Arch: "PDP-11", Nets: nil, Refs: 1000},                                    // no nets
		{Arch: "PDP-11", Nets: []int{96}, Refs: 1000},                              // not a power of two
		{Arch: "PDP-11", Nets: []int{64}, Refs: 1000, Workloads: []string{"nope"}}, // unknown workload
	}
	for i, req := range bad {
		if code, resp := post(t, ts, req, false); code != http.StatusBadRequest {
			t.Errorf("bad request %d: code %d (%s), want 400", i, code, resp.Error)
		}
	}
	// The service picks the engine and shard count itself.  A client
	// written for a server that took them gets a 400 naming the field,
	// because the body is decoded strictly.
	for _, field := range []string{`"engine":"reference"`, `"shards":2`} {
		body := `{"arch":"PDP-11","nets":[64],"refs":1000,` + field + `}`
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out SubmitResponse
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		name := field[:strings.Index(field, ":")]
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, name) {
			t.Errorf("POST with %s: code %d (%s), want 400 naming %s", field, resp.StatusCode, out.Error, name)
		}
	}
	if got := s.Stats().Counter(telemetry.RequestsAdmitted); got != 0 {
		t.Errorf("requests_admitted = %d after only invalid submits, want 0", got)
	}
	// The refusals left the daemon serving.
	if code, resp := post(t, ts, smallRequest(1000), true); code != http.StatusOK {
		t.Errorf("valid request after the refusals: code %d (%s), want 200", code, resp.Error)
	}
}

// blockingHook returns a JobHook that parks every job until release is
// closed (or the job's context is cancelled), plus a channel that
// receives each job's fingerprint as it starts running.
func blockingHook() (hook func(context.Context, string), started chan string, release chan struct{}) {
	started = make(chan string, 64)
	release = make(chan struct{})
	hook = func(ctx context.Context, fp string) {
		started <- fp
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	return hook, started, release
}

// TestAdmissionControlQueueFull proves the queue-depth bound: with one
// worker parked and the one queue slot taken, the next submit is
// refused with 429 and counted as rejected.
func TestAdmissionControlQueueFull(t *testing.T) {
	hook, started, release := blockingHook()
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, JobHook: hook})
	defer close(release)

	// Job A starts running (leaving the queue), job B fills the queue.
	if code, _ := post(t, ts, smallRequest(1000), false); code != http.StatusAccepted {
		t.Fatalf("job A: code %d, want 202", code)
	}
	<-started
	if code, _ := post(t, ts, smallRequest(1001), false); code != http.StatusAccepted {
		t.Fatalf("job B: code %d, want 202", code)
	}
	// Queue full: job C is refused before any work.
	code, resp := post(t, ts, smallRequest(1002), false)
	if code != http.StatusTooManyRequests {
		t.Fatalf("job C: code %d (%s), want 429", code, resp.Error)
	}
	if got := s.Stats().Counter(telemetry.RequestsRejected); got != 1 {
		t.Errorf("requests_rejected = %d, want 1", got)
	}
}

// TestTenantQuota proves per-tenant isolation: an over-quota tenant is
// refused while another tenant is still admitted.
func TestTenantQuota(t *testing.T) {
	hook, started, release := blockingHook()
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8, TenantQuota: 1, JobHook: hook})
	defer close(release)

	a := smallRequest(1000)
	a.Tenant = "alice"
	if code, _ := post(t, ts, a, false); code != http.StatusAccepted {
		t.Fatalf("alice #1: code %d, want 202", code)
	}
	<-started

	b := smallRequest(1001)
	b.Tenant = "alice"
	if code, resp := post(t, ts, b, false); code != http.StatusTooManyRequests {
		t.Fatalf("alice #2: code %d (%s), want 429 (quota)", code, resp.Error)
	}
	c := smallRequest(1002)
	c.Tenant = "bob"
	if code, _ := post(t, ts, c, false); code != http.StatusAccepted {
		t.Fatalf("bob: code %d, want 202 (quota is per tenant)", code)
	}
}

// TestSingleflightDedup proves concurrent identical requests simulate
// exactly once: N clients submit the same request while the first is
// parked, all N block on wait, and all N observe one identical result.
func TestSingleflightDedup(t *testing.T) {
	hook, started, release := blockingHook()
	s, ts := newTestServer(t, Options{Workers: 2, JobHook: hook})

	const n = 8
	req := smallRequest(4000)
	results := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, resp := post(t, ts, req, true)
			if code != http.StatusOK {
				t.Errorf("client %d: code %d (%s %s)", i, code, resp.Status, resp.Error)
				return
			}
			results[i] = resp.Result
		}(i)
	}

	// Hold the one simulation until every client has been admitted or
	// deduplicated, so dedup is exercised, not racing completion.
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := s.Stats()
		if snap.Counter(telemetry.RequestsAdmitted)+snap.Counter(telemetry.RequestsDeduped) >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("clients never all arrived: %+v", s.Stats().Counters)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	snap := s.Stats()
	if got := snap.Counter(telemetry.RequestsAdmitted); got != 1 {
		t.Errorf("requests_admitted = %d, want 1 (single simulation)", got)
	}
	if got := snap.Counter(telemetry.RequestsDeduped); got != n-1 {
		t.Errorf("requests_deduped = %d, want %d", got, n-1)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("client %d result differs from client 0", i)
		}
	}
}

// TestDrainResume proves the drain contract end to end: a sweep
// cancelled mid-run by Shutdown keeps its completed workloads in the
// checkpoint journal, and resubmitting to a fresh server over the same
// data dir resumes from the journal and reproduces a never-interrupted
// run's measurements exactly.
func TestDrainResume(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Dir: dir, Workers: 1})
	// Big enough that the journal gains entries while the sweep is
	// still running: ~6 workloads, each a visible fraction of a second.
	req := smallRequest(400000)

	code, resp := post(t, ts, req, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d, want 202", code)
	}
	fp := resp.ID

	// Wait for the first fsynced journal record, then drain with an
	// already-expired grace so the sweep is cancelled mid-run.
	ckpt := s.checkpointPath(fp)
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
	if err := s.Shutdown(expired); err == nil {
		t.Fatal("Shutdown with an expired context reported a full drain")
	}

	st, err := http.Get(ts.URL + "/v1/sweeps/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	var stResp SubmitResponse
	json.NewDecoder(st.Body).Decode(&stResp)
	st.Body.Close()
	if st.StatusCode != http.StatusConflict || stResp.Status != string(StatusCanceled) {
		t.Fatalf("drained job: code %d status %q, want 409/canceled", st.StatusCode, stResp.Status)
	}

	// A fresh server over the same dir resumes from the journal.
	_, ts2 := newTestServer(t, Options{Dir: dir, Workers: 1})
	code, resumed := post(t, ts2, req, true)
	if code != http.StatusOK {
		t.Fatalf("resubmit: code %d (%s %s), want 200", code, resumed.Status, resumed.Error)
	}
	var resumedRes Result
	if err := json.Unmarshal(resumed.Result, &resumedRes); err != nil {
		t.Fatal(err)
	}
	if resumedRes.Resumed == 0 {
		t.Fatal("resumed run restored 0 workloads from the checkpoint journal")
	}

	// Bit-identity: the resumed measurements match a clean, never
	// interrupted run of the same request on a separate server.
	_, ts3 := newTestServer(t, Options{Workers: 1})
	code, clean := post(t, ts3, req, true)
	if code != http.StatusOK {
		t.Fatalf("clean run: code %d, want 200", code)
	}
	var cleanRes Result
	if err := json.Unmarshal(clean.Result, &cleanRes); err != nil {
		t.Fatal(err)
	}
	if cleanRes.Resumed != 0 {
		t.Fatalf("clean run resumed %d workloads, want 0", cleanRes.Resumed)
	}
	if !reflect.DeepEqual(resumedRes.Points, cleanRes.Points) {
		t.Fatal("resumed results differ from an uninterrupted run")
	}
}

// TestDrainCancelsQueuedJobs proves queued-but-unstarted jobs are
// cancelled on drain without simulating anything.
func TestDrainCancelsQueuedJobs(t *testing.T) {
	hook, started, release := blockingHook()
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, JobHook: hook})

	if code, _ := post(t, ts, smallRequest(1000), false); code != http.StatusAccepted {
		t.Fatal("job A not admitted")
	}
	<-started
	_, queued := post(t, ts, smallRequest(1001), false)

	s.BeginDrain()
	// Draining refuses new work with 503.
	if code, _ := post(t, ts, smallRequest(1002), false); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: code %d, want 503", code)
	}
	// The parked job's context lets it finish; the queued one must be
	// cancelled without running its hook.
	releaseOnce()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := http.Get(ts.URL + "/v1/sweeps/" + queued.ID)
		if err != nil {
			t.Fatal(err)
		}
		var resp SubmitResponse
		json.NewDecoder(st.Body).Decode(&resp)
		st.Body.Close()
		if resp.Status == string(StatusCanceled) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued job status %q, want canceled", resp.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case fp := <-started:
		if fp == queued.ID {
			t.Fatal("queued job started simulating during drain")
		}
	default:
	}
}

// TestWorkloadSubsetDistinctFingerprint: restricting the suite changes
// the cache identity, so a subset result is never served for the full
// suite (or vice versa).
func TestWorkloadSubsetDistinctFingerprint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	full := smallRequest(2000)
	sub := smallRequest(2000)
	sub.Workloads = []string{"OPSYS", "ED"}

	code, fullResp := post(t, ts, full, true)
	if code != http.StatusOK {
		t.Fatalf("full suite: code %d", code)
	}
	code, subResp := post(t, ts, sub, true)
	if code != http.StatusOK {
		t.Fatalf("subset: code %d (%s)", code, subResp.Error)
	}
	if subResp.ID == fullResp.ID {
		t.Fatal("subset request shares the full suite's cache identity")
	}
	if subResp.Cached {
		t.Fatal("subset request was served from the full suite's cache")
	}
}

// TestPoolNoGoroutineLeak proves the worker pool and per-job telemetry
// runs (heartbeat tickers included) all exit across many start/cancel
// cycles -- the service-side half of the torn-shutdown regression.
func TestPoolNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		s, err := New(Options{Dir: t.TempDir(), Workers: 4, Heartbeat: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		// A couple of real jobs, then an immediate hard drain.
		for k := 0; k < 2; k++ {
			wire := &SweepRequest{Arch: "PDP-11", Nets: []int{64}, Refs: 50000 + i + k}
			req, fp, err := s.resolve(wire)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.submit(req, wire, fmt.Sprint(fp, "-", i, "-", k), "t"); err != nil {
				t.Fatal(err)
			}
		}
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		s.Shutdown(expired)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
