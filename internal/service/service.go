// Package service is the long-running sweep daemon behind cmd/sweepd:
// an HTTP/JSON front end that schedules sweep requests on a bounded
// worker pool and serves results from a fingerprint-keyed cache.
//
// The unit of identity is the checkpoint request fingerprint
// (sweep.RequestFingerprint): two requests that would simulate the
// same thing -- whatever their engine or shard strategy -- share one
// simulation, one result-cache entry, and one checkpoint journal.
// Concurrent identical requests are deduplicated singleflight-style
// (they join the in-flight job and all observe its one result), and a
// completed fingerprint is never re-simulated: results are cached in
// memory and in the verified on-disk store (<dir>/cache/<fp>.json,
// written atomically, checksummed on read, TTL- and size-bounded; see
// store.go).
//
// The job table itself is durable: every state transition is one
// fsynced record in the <dir>/jobs.jsonl write-ahead journal (see
// journal.go), so a crash -- SIGKILL included -- loses nothing that was
// admitted.  On startup the journal replays: jobs that never reached a
// terminal state are re-admitted onto the queue and resume
// bit-identically from their per-fingerprint checkpoint journals, while
// /readyz reports "recovering" until they have all reached terminal
// states again.  Graceful drain is different from a crash on purpose: a
// drain-canceled job gets a terminal canceled record -- the client was
// told -- so replay does not resurrect it.
//
// Admission control bounds the damage any client can do: a full queue
// or an over-quota tenant is refused with 429 before any work is
// spent, and a draining server refuses with 503.  Graceful drain
// (Shutdown) stops admission, cancels still-queued jobs (nothing
// simulated, nothing lost), gives in-flight sweeps a grace period to
// finish, and past it cancels them at a chunk boundary -- their
// checkpoint journals retain every completed workload, so a
// resubmission after restart resumes bit-identically instead of
// starting over.
//
// Execution is hardened per job: a request-supplied deadline
// (timeout_sec) bounds a sweep via its context, and transient failures
// (sweep.Transient: trace-source I/O, never panics or cancellations)
// are retried with exponential backoff plus jitter -- each retry
// resumes from the job's checkpoint journal, so completed workloads
// are never paid for twice.
//
// Every job writes the PR 5 telemetry event stream to its own JSONL
// file (<dir>/jobs/<fp>/events.jsonl), flushed on each heartbeat so
// GET /v1/sweeps/{id}/events can tail a live run; the stream ends with
// the terminal run-end event (interrupted=true when drain cancelled
// it).  Service-level counters (requests admitted/rejected/deduped,
// cache hits/evictions/quarantines, retries, recoveries, journal
// records, queue depth) ride the same telemetry vocabulary; see
// docs/SERVICE.md and docs/OBSERVABILITY.md.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"subcache/internal/sweep"
	"subcache/internal/telemetry"
)

// Options configures a Server.  The zero value of each field selects
// the documented default.
type Options struct {
	// Dir is the service's data directory: cache/ holds result and
	// checkpoint files, jobs/ the per-job event streams, jobs.jsonl the
	// job-table write-ahead journal.
	Dir string
	// Workers bounds concurrent sweep executions (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted-but-not-running jobs; a submit beyond
	// it is refused with 429 (default 64).  Jobs recovered from the
	// journal at startup ride above the bound: recovery never refuses
	// what was already admitted.
	QueueDepth int
	// TenantQuota bounds one tenant's live (queued + running) jobs;
	// beyond it the tenant's submits are refused with 429 (default 8).
	TenantQuota int
	// MaxRefs bounds the per-workload trace length a request may ask
	// for (default 2,000,000).
	MaxRefs int
	// Heartbeat is the per-job event heartbeat (and event-stream flush)
	// interval (default 500ms).
	Heartbeat time.Duration
	// CacheTTL bounds the age of on-disk result-cache entries; older
	// ones are evicted -- checkpoint journal included -- and the next
	// request re-simulates (default 7 days; negative disables).
	CacheTTL time.Duration
	// CacheMaxBytes caps the on-disk result cache; past it the
	// least-recently-used entries are evicted, keeping their checkpoint
	// journals so re-simulation resumes cheaply (default 256 MiB;
	// negative disables).
	CacheMaxBytes int64
	// MaxRetries bounds sweep re-executions after a transient failure
	// (sweep.Transient); each retry resumes from the job's checkpoint
	// journal (default 2; negative disables retries).
	MaxRetries int
	// RetryBackoff is the base delay before retry attempt n, doubled
	// per attempt with jitter (default 250ms).
	RetryBackoff time.Duration
	// JobHook, if non-nil, runs at the start of every job execution,
	// before the sweep; tests use it to hold jobs in the running state.
	// nil in production.
	JobHook func(ctx context.Context, fp string)
	// SweepHook, if non-nil, runs before every sweep execution attempt
	// (including retries) and may mutate the request; tests use it to
	// inject per-attempt faults.  nil in production.
	SweepHook func(req *sweep.Request, fp string, attempt int)
}

// jobStatus is a job's lifecycle state.
type jobStatus string

const (
	// StatusQueued: admitted, waiting for a worker.
	StatusQueued jobStatus = "queued"
	// StatusRunning: a worker is simulating it.
	StatusRunning jobStatus = "running"
	// StatusDone: completed; its result is cached and served.
	StatusDone jobStatus = "done"
	// StatusFailed: the sweep returned an error (or hit its deadline);
	// resubmitting retries.
	StatusFailed jobStatus = "failed"
	// StatusCanceled: cut short by drain before or during simulation;
	// completed workloads remain in the checkpoint journal and a
	// resubmission resumes from them.
	StatusCanceled jobStatus = "canceled"
)

// journalKindFor maps a terminal job status to its journal transition.
func journalKindFor(status jobStatus) string {
	switch status {
	case StatusDone:
		return KindCompleted
	case StatusCanceled:
		return KindCanceled
	default:
		return KindFailed
	}
}

// job is one admitted sweep: identity, request, lifecycle and result.
// Status fields are guarded by the server mutex; done closes when the
// job reaches a terminal state.
type job struct {
	fp      string
	tenant  string
	req     sweep.Request
	timeout time.Duration // per-job deadline (0 = none)
	// recovered marks a job re-admitted from the journal at startup;
	// /readyz reports recovering until all such jobs are terminal.
	recovered bool

	// Per-job telemetry, created at admission so the event stream and
	// the job/queue spans cover the whole lifecycle, queue wait
	// included.  admittedAt anchors the queue-wait and end-to-end
	// latency histograms; span/qspan are the "job" and "queue" spans.
	admittedAt time.Time
	rec        *telemetry.Run
	sink       *telemetry.JSONLSink
	span       *telemetry.ActiveSpan
	qspan      *telemetry.ActiveSpan

	status  jobStatus
	errText string
	result  []byte // encoded Result, set iff status == StatusDone
	done    chan struct{}
	cancel  context.CancelFunc // set while running
}

// closeRecorder ends any spans still open and finalises the job's
// event stream (terminal run-end, sink close).  Idempotent, like
// everything it calls; safe on a job whose recorder never existed.
func (j *job) closeRecorder(interrupted bool) error {
	if j.rec == nil {
		return nil
	}
	j.qspan.End()
	j.span.End()
	return j.rec.CloseInterrupted(interrupted)
}

// Server schedules, deduplicates, caches and serves sweeps.  Create
// with New, serve with ServeHTTP, stop with Shutdown.
type Server struct {
	opts    Options
	rec     *telemetry.Run // service-level counters (no sink)
	journal *jobJournal
	store   *diskStore

	mu         sync.Mutex
	jobs       map[string]*job // fingerprint -> latest job
	tenants    map[string]int  // tenant -> live jobs
	memCache   map[string][]byte
	queued     int
	recovering int // recovered jobs not yet terminal
	draining   bool

	queue      chan *job
	wg         sync.WaitGroup
	runCtx     context.Context // cancelled to abort in-flight sweeps
	cancelRuns context.CancelFunc

	muxOnce sync.Once
	mux     *http.ServeMux
}

// New creates the data directories, replays the job journal
// (re-admitting every job that never reached a terminal state), opens
// the verified result store, and starts the worker pool.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.TenantQuota <= 0 {
		opts.TenantQuota = 8
	}
	if opts.MaxRefs <= 0 {
		opts.MaxRefs = 2_000_000
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 500 * time.Millisecond
	}
	switch {
	case opts.CacheTTL == 0:
		opts.CacheTTL = 7 * 24 * time.Hour
	case opts.CacheTTL < 0:
		opts.CacheTTL = 0 // disabled
	}
	switch {
	case opts.CacheMaxBytes == 0:
		opts.CacheMaxBytes = 256 << 20
	case opts.CacheMaxBytes < 0:
		opts.CacheMaxBytes = 0 // disabled
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	} else if opts.MaxRetries == 0 {
		opts.MaxRetries = 2
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 250 * time.Millisecond
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("service: Options.Dir is required")
	}
	for _, d := range []string{opts.Dir, filepath.Join(opts.Dir, "cache"), filepath.Join(opts.Dir, "jobs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	rec := telemetry.NewRun(telemetry.Options{})
	journal, recovered, err := openJobJournal(filepath.Join(opts.Dir, "jobs.jsonl"), rec)
	if err != nil {
		return nil, err
	}
	store, err := openStore(filepath.Join(opts.Dir, "cache"), opts.CacheTTL, opts.CacheMaxBytes)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		rec:      rec,
		journal:  journal,
		store:    store,
		jobs:     make(map[string]*job),
		tenants:  make(map[string]int),
		memCache: make(map[string][]byte),
		// Recovered jobs ride above QueueDepth so re-admission can
		// never block or refuse what a previous process accepted.
		queue:      make(chan *job, opts.QueueDepth+len(recovered)),
		runCtx:     ctx,
		cancelRuns: cancel,
	}
	for _, st := range recovered {
		wire, req, fp, rerr := s.resolveJournaled(st.req)
		if rerr != nil {
			// The request no longer resolves (e.g. limits tightened);
			// terminalise it so replay stops resurrecting it.
			journal.append(JournalRecord{Kind: KindFailed, FP: st.fp, Error: "recovery: " + rerr.Error()})
			continue
		}
		tenant := st.tenant
		if tenant == "" {
			tenant = defaultTenant
		}
		j := &job{
			fp: fp, tenant: tenant, req: req,
			timeout:   timeoutOf(wire),
			recovered: true,
			status:    StatusQueued,
			done:      make(chan struct{}),
		}
		if rerr := s.openJobRecorder(j); rerr != nil {
			// The event stream cannot be (re)created; terminalise rather
			// than abort startup over an observability file.
			journal.append(JournalRecord{Kind: KindFailed, FP: st.fp, Error: "recovery: " + rerr.Error()})
			continue
		}
		s.jobs[fp] = j
		s.tenants[tenant]++
		s.queued++
		s.recovering++
		rec.Add(telemetry.JobsRecovered, 1)
		s.queue <- j
	}
	rec.SetGauge(telemetry.QueueDepth, int64(s.queued))
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Stats returns the service's counter snapshot.
func (s *Server) Stats() *telemetry.Snapshot { return s.rec.Snapshot() }

// openJobRecorder creates a job's event stream and recorder at
// admission time, so the stream covers the whole lifecycle: the "job"
// span opens immediately and the "queue" span inside it measures the
// wait until a worker dequeues the job.  The sink truncates any
// previous stream for the fingerprint (a recovered job's torn one
// included).  The job fingerprint is the trace id on every span.
func (s *Server) openJobRecorder(j *job) error {
	sink, err := telemetry.CreateJSONLSink(s.eventsPath(j.fp))
	if err != nil {
		return err
	}
	j.sink = sink
	j.rec = telemetry.NewRun(telemetry.Options{
		Sink:      sink,
		Heartbeat: s.opts.Heartbeat,
		TraceID:   j.fp,
		// Flush on every beat so tailing the stream mid-run works.
		OnHeartbeat: func(*telemetry.Snapshot) { sink.Flush() },
	})
	j.admittedAt = time.Now()
	detail := ""
	if j.recovered {
		detail = "recovered"
	}
	j.span = telemetry.StartSpan(j.rec, telemetry.Span{Name: "job", Detail: detail})
	j.qspan = telemetry.StartSpan(j.rec, telemetry.Span{Name: "queue", Parent: j.span.ID()})
	sink.Flush()
	return nil
}

// Recovering returns the number of journal-recovered jobs that have not
// yet reached a terminal state; /readyz reports 503 until it is zero.
func (s *Server) Recovering() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovering
}

// submitOutcome is one admission decision, for the HTTP layer to
// render.
type submitOutcome struct {
	job     *job
	status  jobStatus
	result  []byte // non-nil on a cache hit
	cached  bool
	deduped bool
}

// submit applies cache lookup, singleflight dedup and admission
// control to one resolved request.  It returns an outcome, or an
// admission error (errRejected / errDraining).  An admitted job is
// journaled -- record fsynced, wire request embedded -- before submit
// returns, so from the client's 202 onward a crash cannot lose it.
func (s *Server) submit(req sweep.Request, wire *SweepRequest, fp, tenant string) (submitOutcome, error) {
	if tenant == "" {
		tenant = defaultTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Result cache, memory then verified disk store: a completed
	// fingerprint is never simulated again.
	if b := s.cachedLocked(fp); b != nil {
		s.rec.Add(telemetry.CacheHits, 1)
		return submitOutcome{status: StatusDone, result: b, cached: true}, nil
	}
	// Singleflight: join an identical in-flight job instead of queuing
	// a second simulation.  Recovery rides this same path: a client
	// polling a crash-recovered id joins the re-admitted job.
	if j, ok := s.jobs[fp]; ok && (j.status == StatusQueued || j.status == StatusRunning) {
		s.rec.Add(telemetry.RequestsDeduped, 1)
		return submitOutcome{job: j, status: j.status, deduped: true}, nil
	}
	// Admission control.
	if s.draining {
		s.rec.Add(telemetry.RequestsRejected, 1)
		return submitOutcome{}, errDraining
	}
	if s.queued >= s.opts.QueueDepth {
		s.rec.Add(telemetry.RequestsRejected, 1)
		return submitOutcome{}, fmt.Errorf("%w: queue full (%d queued)", errRejected, s.queued)
	}
	if s.tenants[tenant] >= s.opts.TenantQuota {
		s.rec.Add(telemetry.RequestsRejected, 1)
		return submitOutcome{}, fmt.Errorf("%w: tenant %q over quota (%d live jobs)", errRejected, tenant, s.tenants[tenant])
	}

	// The event stream opens before the admission is journaled, so a
	// journaled job always has a stream; if the stream cannot be
	// created the submit fails before any durable state exists.
	j := &job{
		fp: fp, tenant: tenant, req: req,
		timeout: timeoutOf(wire),
		status:  StatusQueued,
		done:    make(chan struct{}),
	}
	if err := s.openJobRecorder(j); err != nil {
		return submitOutcome{}, err
	}
	// Journal the admission before exposing it; if the record cannot be
	// made durable the job is not admitted at all (the client sees 500
	// and retries), preserving "journaled iff admitted".
	raw, err := json.Marshal(wire)
	if err == nil {
		err = s.journal.append(JournalRecord{Kind: KindAdmitted, FP: fp, Tenant: tenant, Req: raw})
	}
	if err != nil {
		j.closeRecorder(true)
		return submitOutcome{}, err
	}
	s.jobs[fp] = j
	s.tenants[tenant]++
	s.queued++
	s.rec.SetGauge(telemetry.QueueDepth, int64(s.queued))
	s.rec.Add(telemetry.RequestsAdmitted, 1)
	s.queue <- j // buffered to QueueDepth; the bound above keeps this non-blocking
	return submitOutcome{job: j, status: StatusQueued}, nil
}

// cachedLocked returns the encoded result for fp from the memory
// cache, falling back to (and refilling from) the verified disk store.
// TTL expiry and verification failures surface here: an expired entry
// is evicted (journal record, counter, checkpoint reclaimed) and a
// corrupt one quarantined and counted; both read as a miss, so the
// caller transparently re-simulates.  Caller holds mu.
func (s *Server) cachedLocked(fp string) []byte {
	if b, ok := s.memCache[fp]; ok {
		if fresh, expired := s.store.touch(fp); fresh {
			return b
		} else if expired {
			s.noteEvictionsLocked([]string{fp}, true)
		}
		// Evicted or expired on disk: the memory copy dies with it.
		delete(s.memCache, fp)
		return nil
	}
	t0 := time.Now()
	payload, status := s.store.get(fp)
	// Disk-read latency only; memory-cache hits return above unobserved.
	s.rec.ObserveDur(telemetry.HistCacheRead, time.Since(t0))
	switch status {
	case storeHit:
		s.memCache[fp] = payload
		return payload
	case storeExpired:
		s.noteEvictionsLocked([]string{fp}, true)
	case storeCorrupt:
		s.rec.Add(telemetry.CacheCorruptQuarantined, 1)
	}
	return nil
}

// noteEvictionsLocked records store evictions: counter, a journal
// evicted record per fingerprint, the memory copy dropped, and -- for
// TTL reclamation -- the checkpoint journal removed too (a stale
// result's resume insurance is equally stale).  Caller holds mu.
func (s *Server) noteEvictionsLocked(fps []string, reclaimCheckpoint bool) {
	for _, fp := range fps {
		s.rec.Add(telemetry.CacheEvictions, 1)
		delete(s.memCache, fp)
		s.journal.append(JournalRecord{Kind: KindEvicted, FP: fp})
		if reclaimCheckpoint {
			os.Remove(s.checkpointPath(fp))
		}
	}
}

func (s *Server) cachePath(fp string) string {
	return filepath.Join(s.opts.Dir, "cache", fp+".json")
}

func (s *Server) checkpointPath(fp string) string {
	return filepath.Join(s.opts.Dir, "cache", fp+".ckpt.jsonl")
}

func (s *Server) eventsPath(fp string) string {
	return filepath.Join(s.opts.Dir, "jobs", fp, "events.jsonl")
}

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.queued--
		s.rec.SetGauge(telemetry.QueueDepth, int64(s.queued))
		if s.draining {
			// Drained before starting: nothing was simulated, nothing
			// is lost; the client resubmits after restart.  The event
			// stream is finalised (spans closed, run-end interrupted)
			// outside the lock -- it is file I/O -- before the terminal
			// state is published.
			s.mu.Unlock()
			j.closeRecorder(true)
			s.mu.Lock()
			s.finishLocked(j, StatusCanceled, nil, "server draining")
			s.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(s.runCtx)
		j.status = StatusRunning
		j.cancel = cancel
		// Best effort: if this record is lost, replay re-runs from the
		// admitted record and the checkpoint journal still dedups work.
		s.journal.append(JournalRecord{Kind: KindStarted, FP: j.fp})
		s.mu.Unlock()

		status, result, errText := s.runJob(ctx, j)
		cancel()

		s.mu.Lock()
		s.finishLocked(j, status, result, errText)
		s.mu.Unlock()
	}
}

// finishLocked moves a job to a terminal state, journals the
// transition, and releases its quota.  Caller holds mu.
func (s *Server) finishLocked(j *job, status jobStatus, result []byte, errText string) {
	j.status = status
	j.errText = errText
	j.result = result
	if status == StatusDone {
		s.memCache[j.fp] = result
	}
	if !j.admittedAt.IsZero() {
		s.rec.ObserveDur(telemetry.HistJobLatency, time.Since(j.admittedAt))
	}
	// Best effort: a lost terminal record means replay re-admits the
	// job, and the result cache / checkpoint journal absorb the rerun.
	s.journal.append(JournalRecord{Kind: journalKindFor(status), FP: j.fp, Error: errText})
	if j.recovered {
		s.recovering--
	}
	if s.tenants[j.tenant]--; s.tenants[j.tenant] <= 0 {
		delete(s.tenants, j.tenant)
	}
	close(j.done)
}

// retryDelay is the backoff before retry attempt (attempt+1): base
// doubled per attempt (capped at 64x), with uniform jitter in
// [delay/2, delay] so synchronized failures do not retry in lockstep.
func retryDelay(base time.Duration, attempt int) time.Duration {
	if attempt > 6 {
		attempt = 6
	}
	d := base << uint(attempt)
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half+1))
}

// runJob executes one sweep on the job's admission-time telemetry
// stream and checkpoint journal, applying the per-job deadline and the
// transient retry policy.  Queue wait, per-attempt execution, retry
// backoff and the cache write are observed on both the job's recorder
// (so they land in its event stream and RUN-style snapshot) and the
// server recorder (so /metrics aggregates across jobs).
func (s *Server) runJob(ctx context.Context, j *job) (jobStatus, []byte, string) {
	wait := time.Since(j.admittedAt)
	j.qspan.End()
	s.rec.ObserveDur(telemetry.HistQueueWait, wait)
	j.rec.ObserveDur(telemetry.HistQueueWait, wait)
	// The job deadline nests inside the drain context, so "drained" and
	// "timed out" stay distinguishable below.
	jctx := ctx
	if j.timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}
	if s.opts.JobHook != nil {
		s.opts.JobHook(jctx, j.fp)
	}
	req := j.req
	req.Recorder = j.rec
	req.Checkpoint = s.checkpointPath(j.fp)

	var res *sweep.Result
	var runErr error
	for attempt := 0; ; attempt++ {
		if s.opts.SweepHook != nil {
			s.opts.SweepHook(&req, j.fp, attempt)
		}
		asp := telemetry.StartSpan(j.rec, telemetry.Span{
			Name:   "attempt",
			Parent: j.span.ID(),
			Detail: strconv.Itoa(attempt),
		})
		t0 := time.Now()
		res, runErr = sweep.RunContext(telemetry.ContextWithSpan(jctx, asp.ID()), req)
		exec := time.Since(t0)
		s.rec.ObserveDur(telemetry.HistExecution, exec)
		j.rec.ObserveDur(telemetry.HistExecution, exec)
		if runErr != nil {
			asp.EndErr(runErr.Error())
		} else {
			asp.End()
		}
		if runErr == nil || jctx.Err() != nil ||
			attempt >= s.opts.MaxRetries || !sweep.Transient(runErr) {
			break
		}
		// Transient (trace-source I/O) and attempts remain: back off and
		// re-run.  The checkpoint journal carries every workload that
		// completed before the failure, so the retry resumes, not
		// restarts.
		s.rec.Add(telemetry.JobRetries, 1)
		t0 = time.Now()
		select {
		case <-time.After(retryDelay(s.opts.RetryBackoff, attempt)):
		case <-jctx.Done():
		}
		backoff := time.Since(t0)
		s.rec.ObserveDur(telemetry.HistRetryBackoff, backoff)
		j.rec.ObserveDur(telemetry.HistRetryBackoff, backoff)
	}

	drained := ctx.Err() != nil
	timedOut := !drained && jctx.Err() != nil
	status, result, errText := func() (jobStatus, []byte, string) {
		switch {
		case drained:
			// Drain cancelled the sweep at a chunk boundary.  Every
			// workload that completed is in the checkpoint journal (each
			// record fsynced whole), so a resubmission resumes exactly.
			return StatusCanceled, nil, "interrupted by drain; completed workloads checkpointed"
		case timedOut:
			return StatusFailed, nil, fmt.Sprintf("deadline exceeded (timeout %s); completed workloads checkpointed", j.timeout)
		case runErr != nil:
			return StatusFailed, nil, runErr.Error()
		}
		b, err := encodeResult(buildResult(j.fp, j.req, res))
		if err != nil {
			return StatusFailed, nil, err.Error()
		}
		csp := telemetry.StartSpan(j.rec, telemetry.Span{Name: "cache-write", Parent: j.span.ID()})
		t0 := time.Now()
		expired, evicted, err := s.store.put(j.fp, b)
		wdur := time.Since(t0)
		s.rec.ObserveDur(telemetry.HistCacheWrite, wdur)
		j.rec.ObserveDur(telemetry.HistCacheWrite, wdur)
		if err != nil {
			csp.EndErr(err.Error())
			return StatusFailed, nil, err.Error()
		}
		csp.End()
		if len(expired) > 0 || len(evicted) > 0 {
			s.mu.Lock()
			s.noteEvictionsLocked(expired, true)
			s.noteEvictionsLocked(evicted, false)
			s.mu.Unlock()
		}
		return StatusDone, b, ""
	}()
	if errText != "" {
		j.span.EndErr(errText)
	} else {
		j.span.End()
	}
	if cerr := j.closeRecorder(drained || timedOut); cerr != nil && status == StatusDone {
		// A torn event stream on a completed job: the result is good,
		// but the observable record is not -- surface it.
		return StatusFailed, nil, cerr.Error()
	}
	return status, result, errText
}

// BeginDrain stops admission (new submits get 503) without touching
// running work; Shutdown calls it first.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
}

// Shutdown drains the pool: stop admitting, let queued jobs cancel
// cleanly (workers mark them canceled without simulating), and wait
// for in-flight sweeps.  If ctx expires first, in-flight sweeps are
// cancelled at their next chunk boundary -- their checkpoint journals
// keep every completed workload -- and Shutdown waits for the workers
// to exit.  Every job the workers terminalise on the way down gets its
// journal record, so a drained server's journal replays to nothing.
// Safe to call once; returns ctx's error if the grace period expired.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelRuns()
		<-done
	}
	s.cancelRuns()
	s.rec.Close()
	s.journal.Close()
	return err
}
