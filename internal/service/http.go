// HTTP front end of the sweep service.
//
//	POST /v1/sweeps            submit a sweep (SweepRequest JSON);
//	                           ?wait=1 blocks until it finishes
//	GET  /v1/sweeps/{id}       status / result; ?wait=1 blocks
//	GET  /v1/sweeps/{id}/events  the job's JSONL telemetry stream
//	GET  /v1/stats             service counters (telemetry snapshot)
//	GET  /metrics              Prometheus text exposition (0.0.4)
//	GET  /healthz              liveness (the process is up)
//	GET  /readyz               readiness: 503 while draining or while
//	                           journal-recovered jobs are still being
//	                           re-run, 200 otherwise
//
// Status codes: 200 done (result or cache hit), 202 accepted
// (queued/running/deduped), 400 invalid request, 404 unknown id (one
// not of the form resolve gives, or whose result was evicted), 409
// failed/canceled job, 429 admission refused (queue full or tenant
// over quota), 503 draining.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"

	"subcache/internal/telemetry"
)

// errRejected marks an admission-control refusal (429); errDraining a
// draining server (503).
var (
	errRejected = errors.New("admission refused")
	errDraining = errors.New("server draining")
)

// SubmitResponse is the POST /v1/sweeps reply envelope.
type SubmitResponse struct {
	// ID addresses the job (GET /v1/sweeps/{id}); it IS the request's
	// result fingerprint, which is what makes dedup and caching
	// client-visible.
	ID     string `json:"id"`
	Status string `json:"status"`
	// Cached marks a result served from the fingerprint cache with no
	// simulation; Deduped marks a join onto an identical in-flight job.
	Cached  bool   `json:"cached,omitempty"`
	Deduped bool   `json:"deduped,omitempty"`
	Events  string `json:"events,omitempty"`
	Error   string `json:"error,omitempty"`
	// Result is inlined when Status is "done".
	Result json.RawMessage `json:"result,omitempty"`
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.muxOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
		mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
		mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
		mux.HandleFunc("GET /v1/stats", s.handleStats)
		mux.HandleFunc("GET /metrics", s.handleMetrics)
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("GET /readyz", s.handleReady)
		s.mux = mux
	})
	s.mux.ServeHTTP(w, r)
}

// handleSubmit decodes, resolves and submits one sweep request.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	wire, err := decodeSubmit(w, r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, SubmitResponse{Status: "invalid", Error: err.Error()})
		return
	}
	req, fp, err := s.resolve(&wire)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, SubmitResponse{Status: "invalid", Error: err.Error()})
		return
	}
	out, err := s.submit(req, &wire, fp, wire.Tenant)
	switch {
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, SubmitResponse{ID: fp, Status: "rejected", Error: err.Error()})
		return
	case errors.Is(err, errRejected):
		writeJSON(w, http.StatusTooManyRequests, SubmitResponse{ID: fp, Status: "rejected", Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, SubmitResponse{ID: fp, Status: "error", Error: err.Error()})
		return
	}
	resp := SubmitResponse{
		ID:      fp,
		Status:  string(out.status),
		Cached:  out.cached,
		Deduped: out.deduped,
		Events:  "/v1/sweeps/" + fp + "/events",
		Result:  out.result,
	}
	if out.cached {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		s.respondWhenDone(w, r, out.job)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// decodeSubmit decodes a POST /v1/sweeps body: at most 1 MiB holding
// exactly one JSON object, optionally followed by whitespace.  A field
// SweepRequest does not name (an engine or shard count, say) is an
// error, and so is anything after the object.
func decodeSubmit(w http.ResponseWriter, body io.ReadCloser) (SweepRequest, error) {
	var wire SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return wire, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return wire, errors.New("request body continues after its JSON object")
	}
	return wire, nil
}

// handleStatus reports one job, or a stored result, by fingerprint id.
// A done job is no longer in the table, and finishLocked removes it
// only after its result is in the store.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !isJobID(id) {
		writeNotFound(w, id)
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		if b := s.store.get(id); b != nil {
			writeJSON(w, http.StatusOK, SubmitResponse{ID: id, Status: string(StatusDone), Cached: true, Result: b})
			return
		}
		writeNotFound(w, id)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		s.respondWhenDone(w, r, j)
		return
	}
	s.writeJobStatus(w, j)
}

// respondWhenDone blocks until the job reaches a terminal state (or
// the client goes away), then writes its status.
func (s *Server) respondWhenDone(w http.ResponseWriter, r *http.Request, j *job) {
	select {
	case <-j.done:
		s.writeJobStatus(w, j)
	case <-r.Context().Done():
		// Client gone; nothing to write.
	}
}

// writeJobStatus renders a job's current state.
func (s *Server) writeJobStatus(w http.ResponseWriter, j *job) {
	s.mu.Lock()
	resp := SubmitResponse{
		ID:     j.fp,
		Status: string(j.status),
		Events: "/v1/sweeps/" + j.fp + "/events",
		Error:  j.errText,
		Result: j.result,
	}
	s.mu.Unlock()
	code := http.StatusAccepted
	switch jobStatus(resp.Status) {
	case StatusDone:
		code = http.StatusOK
	case StatusFailed, StatusCanceled:
		code = http.StatusConflict
	}
	writeJSON(w, code, resp)
}

// handleEvents serves a job's JSONL telemetry stream as written so
// far (heartbeats flush it, so a live job's stream is current to the
// last beat).  A job's stream exists from its admission on, so the
// file alone answers, and a restarted server still serves the streams
// left on disk.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !isJobID(id) {
		writeNotFound(w, id)
		return
	}
	path := s.eventsPath(id)
	if _, err := os.Stat(path); err != nil {
		writeNotFound(w, id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	http.ServeFile(w, r, path)
}

// handleReady distinguishes readiness from liveness: a draining server
// is going away and a recovering one is still re-running journaled
// jobs, so both answer 503 and a load balancer routes elsewhere;
// /healthz stays 200 throughout, because the process is healthy.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining, recovering := s.draining, s.recovering
	s.mu.Unlock()
	switch {
	case draining:
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case recovering > 0:
		http.Error(w, fmt.Sprintf("recovering: %d jobs replaying", recovering), http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ready")
	}
}

// handleStats serves the service counter snapshot.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining, queued, recovering := s.draining, s.queued, s.recovering
	s.mu.Unlock()
	entries, bytes := s.store.stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"version":    telemetry.Version,
		"draining":   draining,
		"ready":      !draining && recovering == 0,
		"recovering": recovering,
		"queued":     queued,
		"workers":    s.opts.Workers,
		"cache": map[string]any{
			"entries":     entries,
			"bytes":       bytes,
			"max_bytes":   s.opts.CacheMaxBytes,
			"ttl_seconds": s.opts.CacheTTL.Seconds(),
		},
		"telemetry": s.Stats(),
	})
}

// handleMetrics serves the counter snapshot in Prometheus text
// exposition format (version 0.0.4): counters, gauges, per-stage and
// service-level latency histograms, and a sweepd_build_info series
// carrying the link-time version stamp.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining, queued, recovering := s.draining, s.queued, s.recovering
	s.mu.Unlock()
	entries, bytes := s.store.stats()
	snap := s.rec.Snapshot()
	drainVal := 0.0
	if draining {
		drainVal = 1
	}
	extra := map[string]float64{
		"cache_entries":   float64(entries),
		"cache_bytes":     float64(bytes),
		"queued_jobs":     float64(queued),
		"recovering_jobs": float64(recovering),
		"draining":        drainVal,
		"workers":         float64(s.opts.Workers),
	}
	build := map[string]string{
		"version":    telemetry.Version,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	w.Header().Set("Content-Type", telemetry.PromContentType)
	telemetry.WritePromText(w, "sweepd", snap, extra, build)
}

func writeNotFound(w http.ResponseWriter, id string) {
	writeJSON(w, http.StatusNotFound, SubmitResponse{ID: id, Status: "unknown", Error: "no such sweep"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
