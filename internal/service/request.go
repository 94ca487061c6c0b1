// Wire vocabulary of the sweep service: the JSON request a client
// POSTs, its validation limits, and the JSON result a finished sweep
// serves.  The request names only what determines the results (arch,
// nets, refs, workloads) plus admission context (tenant, deadline);
// the service picks the engine and shard count itself.  The result is
// a flattened, self-describing rendering of sweep.Result.
package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"subcache/internal/sweep"
	"subcache/internal/synth"
)

// SweepRequest is the POST /v1/sweeps body.
type SweepRequest struct {
	// Arch names the workload suite ("PDP-11", "Z8000", "VAX-11",
	// "System/370").
	Arch string `json:"arch"`
	// Nets lists the net (total cache) sizes in bytes; the request
	// sweeps the full Table 1 grid over them (sweep.Grid).
	Nets []int `json:"nets"`
	// Refs is the trace length per workload.
	Refs int `json:"refs"`
	// Workloads optionally restricts the suite (empty = all).
	Workloads []string `json:"workloads,omitempty"`
	// Tenant attributes the request for quota accounting; empty maps
	// to "default".
	Tenant string `json:"tenant,omitempty"`
	// TimeoutSec bounds the job's execution wall-clock (0 = no
	// deadline).  Execution-only: it does not contribute to the
	// fingerprint, so identical sweeps with different deadlines still
	// dedup and share one result.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// timeoutOf converts the wire deadline into a duration (0 = none).
func timeoutOf(wire *SweepRequest) time.Duration {
	if wire == nil || wire.TimeoutSec <= 0 {
		return 0
	}
	return time.Duration(wire.TimeoutSec * float64(time.Second))
}

// Validation limits; Options can tighten MaxRefs.
const (
	maxNets       = 16
	maxNetSize    = 1 << 24
	maxTimeoutSec = 86_400
	defaultTenant = "default"
)

// resolve validates the wire request and converts it into an
// executable sweep.Request plus its result fingerprint.
func (s *Server) resolve(wire *SweepRequest) (sweep.Request, string, error) {
	arch, err := synth.ParseArch(wire.Arch)
	if err != nil {
		return sweep.Request{}, "", err
	}
	if wire.Refs <= 0 || wire.Refs > s.opts.MaxRefs {
		return sweep.Request{}, "", fmt.Errorf("refs %d out of range [1, %d]", wire.Refs, s.opts.MaxRefs)
	}
	if wire.TimeoutSec < 0 || wire.TimeoutSec > maxTimeoutSec {
		return sweep.Request{}, "", fmt.Errorf("timeout_sec %g out of range [0, %d]", wire.TimeoutSec, maxTimeoutSec)
	}
	if len(wire.Nets) == 0 || len(wire.Nets) > maxNets {
		return sweep.Request{}, "", fmt.Errorf("want 1-%d net sizes, got %d", maxNets, len(wire.Nets))
	}
	// A net size may appear once: a repeat would list its grid twice
	// and give the same results a second cache identity.
	seenNet := make(map[int]bool, len(wire.Nets))
	for _, n := range wire.Nets {
		if n < 2 || n > maxNetSize || n&(n-1) != 0 {
			return sweep.Request{}, "", fmt.Errorf("net size %d not a power of two in [2, %d]", n, maxNetSize)
		}
		if seenNet[n] {
			return sweep.Request{}, "", fmt.Errorf("net size %d named twice", n)
		}
		seenNet[n] = true
	}
	points := sweep.Grid(wire.Nets, arch.WordSize())
	if len(points) == 0 {
		return sweep.Request{}, "", fmt.Errorf("net sizes %v produce an empty grid", wire.Nets)
	}
	// An unknown or repeated workload is refused here, before
	// admission, by the check the sweep itself runs.
	if _, err := sweep.SelectWorkloads(arch, wire.Workloads); err != nil {
		return sweep.Request{}, "", err
	}
	req := sweep.Request{Arch: arch, Points: points, Refs: wire.Refs}
	if len(wire.Workloads) > 0 {
		// "workloads":[] means the whole suite, as an absent list
		// does, and must resolve to the same request: the journal
		// records the request without the empty list.
		req.Workloads = wire.Workloads
	}
	fp, err := sweep.RequestFingerprint(req)
	if err != nil {
		return sweep.Request{}, "", err
	}
	// The sweep fingerprint covers arch/word/refs/points but not the
	// workload subset.  The service's unit of caching is the whole
	// request, so a restricted suite gets its own cache identity, and
	// its own checkpoint journal, which is named after the same id.
	if len(wire.Workloads) > 0 {
		fp = fmt.Sprintf("%s-w%d", fp, hashStrings(wire.Workloads))
	}
	return req, fp, nil
}

// isJobID reports whether id has the form of every job id resolve
// produces: 16 lowercase hex digits (the request fingerprint),
// optionally followed by "-w" and decimal digits (the workload-subset
// suffix).  The HTTP routes refuse an id of any other form before it
// can reach a table, the store or a file path.
func isJobID(id string) bool {
	fp, subset, hasSubset := strings.Cut(id, "-w")
	if len(fp) != 16 || strings.Trim(fp, "0123456789abcdef") != "" {
		return false
	}
	return !hasSubset || subset != "" && strings.Trim(subset, "0123456789") == ""
}

// resolveJournaled decodes and resolves the request of a journaled
// admission.  The decode is lenient, unlike a POST's: a record that an
// older server wrote may carry request fields this one no longer takes
// (engine, shards), and replay must still recover its job.
func (s *Server) resolveJournaled(raw json.RawMessage) (*SweepRequest, sweep.Request, string, error) {
	var wire SweepRequest
	if err := json.Unmarshal(raw, &wire); err != nil {
		return nil, sweep.Request{}, "", err
	}
	req, fp, err := s.resolve(&wire)
	return &wire, req, fp, err
}

// hashStrings folds a name list into a short stable id (FNV-1a).
func hashStrings(ss []string) uint32 {
	h := uint32(2166136261)
	for _, s := range ss {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * 16777619
		}
		h = (h ^ 0x1f) * 16777619
	}
	return h
}

// RunResult is one workload's measured outcome at one grid point.
type RunResult struct {
	Workload string  `json:"workload"`
	Miss     float64 `json:"miss"`
	Traffic  float64 `json:"traffic"`
	Scaled   float64 `json:"scaled"`
	Accesses uint64  `json:"accesses"`
	Misses   uint64  `json:"misses"`
}

// PointResult is one grid point: the unweighted cross-workload summary
// plus every per-workload run, in catalog order.
type PointResult struct {
	Point   string      `json:"point"`
	N       int         `json:"n"`
	Miss    float64     `json:"miss"`
	Traffic float64     `json:"traffic"`
	Scaled  float64     `json:"scaled"`
	Runs    []RunResult `json:"runs"`
}

// Result is the JSON body a completed sweep serves (and the on-disk
// cache entry's payload).
type Result struct {
	Fingerprint string        `json:"fingerprint"`
	Arch        string        `json:"arch"`
	Refs        int           `json:"refs"`
	TracePasses int           `json:"trace_passes"`
	Resumed     int           `json:"resumed_workloads"`
	Points      []PointResult `json:"points"`
}

// buildResult flattens a sweep.Result into the wire form, points in
// canonical Table 7 order.
func buildResult(fp string, req sweep.Request, res *sweep.Result) *Result {
	out := &Result{
		Fingerprint: fp,
		Arch:        req.Arch.String(),
		Refs:        req.Refs,
		TracePasses: res.TracePasses,
		Resumed:     res.Resumed,
	}
	for _, p := range res.Points() {
		sum := res.Summaries[p]
		pr := PointResult{
			Point:   p.String(),
			N:       sum.N,
			Miss:    sum.Miss,
			Traffic: sum.Traffic,
			Scaled:  sum.Scaled,
		}
		for _, run := range res.Runs[p] {
			pr.Runs = append(pr.Runs, RunResult{
				Workload: run.Trace,
				Miss:     run.Miss,
				Traffic:  run.Traffic,
				Scaled:   run.Scaled,
				Accesses: run.Accesses,
				Misses:   run.Misses,
			})
		}
		out.Points = append(out.Points, pr)
	}
	return out
}

// encodeResult marshals a Result for the cache and the wire.
func encodeResult(r *Result) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("service: encoding result: %w", err)
	}
	return b, nil
}
