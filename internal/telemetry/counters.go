package telemetry

// The counter and gauge catalogue (the histogram catalogue is in
// hist.go).  Every identifier is a dense index into a pre-sized atomic
// array, so an update is one atomic add with no map lookups and no
// allocation.  Names are the stable wire vocabulary: they appear in
// heartbeat snapshots and RUN.json, and docs/OBSERVABILITY.md documents
// each one; add new entries at the end of an enum and to its name table
// together.

// Counter identifies one monotonic counter.
type Counter int

const (
	// RefsRead counts word references produced by trace sources
	// (synthetic generators or trace-file readers), once per reference
	// regardless of how many configurations consume it.
	RefsRead Counter = iota
	// RefsSimulated counts references fed into simulation units: one
	// reference consumed by k units counts k, where a multipass bundle
	// counts as its families.  This is the pipeline's work measure and
	// the numerator of the progress line's refs/sec.
	RefsSimulated
	// ChunksBroadcast counts trace chunks the sharded executor's
	// producer handed to its shard workers.
	ChunksBroadcast
	// FamiliesFlushed counts multipass families finalised by
	// FlushUsage at the end of a pass.
	FamiliesFlushed
	// PointsPlanned counts (workload, point) pairs a sweep set out to
	// simulate, added at run-start.  The progress line's denominator.
	PointsPlanned
	// PointsCompleted counts (workload, point) pairs that finished
	// cleanly with counters intact.
	PointsCompleted
	// PointsFailed counts attributed failures (PointErrors): one per
	// lost point, or a single count for a workload-scope failure that
	// loses every point of its workload.  Each increment has a matching
	// error-attributed event.
	PointsFailed
	// PointsResumed counts (workload, point) pairs restored from a
	// checkpoint journal instead of simulated.
	PointsResumed
	// EventsDropped counts events the sink failed to write (disk
	// errors); the only self-referential counter.
	EventsDropped
	// RequestsAdmitted counts sweep requests the service accepted onto
	// its worker queue (cache hits and dedup joins are not admissions).
	RequestsAdmitted
	// RequestsRejected counts sweep requests refused by admission
	// control: queue full, tenant over quota, or a draining server.
	RequestsRejected
	// RequestsDeduped counts requests that joined an identical
	// in-flight sweep (same fingerprint) instead of simulating again.
	RequestsDeduped
	// CacheHits counts requests served from the fingerprint-keyed
	// result cache (memory or disk) without any simulation.
	CacheHits
	// CacheEvictions counts on-disk result-cache entries removed by the
	// service's TTL or size-cap eviction policy.
	CacheEvictions
	// CacheCorruptQuarantined counts on-disk result-cache entries that
	// failed verification (bad checksum, fingerprint mismatch, torn or
	// unparsable envelope) and were moved to the cache's corrupt/
	// directory instead of being served.
	CacheCorruptQuarantined
	// JobRetries counts sweep re-executions after a transient failure
	// (a trace-stream error or a failed checkpoint append; see
	// sweep.Transient), each preceded by an exponential-backoff delay.
	JobRetries
	// JobsRecovered counts jobs re-admitted from the service's job
	// journal at startup: their last valid record is admitted, so they
	// never reached a terminal state.
	JobsRecovered
	numCounters
)

// counterNames is the stable wire name of each counter.
var counterNames = [numCounters]string{
	RefsRead:                "refs_read",
	RefsSimulated:           "refs_simulated",
	ChunksBroadcast:         "chunks_broadcast",
	FamiliesFlushed:         "families_flushed",
	PointsPlanned:           "points_planned",
	PointsCompleted:         "points_completed",
	PointsFailed:            "points_failed",
	PointsResumed:           "points_resumed",
	EventsDropped:           "events_dropped",
	RequestsAdmitted:        "requests_admitted",
	RequestsRejected:        "requests_rejected",
	RequestsDeduped:         "requests_deduped",
	CacheHits:               "cache_hits",
	CacheEvictions:          "cache_evictions",
	CacheCorruptQuarantined: "cache_corrupt_quarantined",
	JobRetries:              "job_retries",
	JobsRecovered:           "jobs_recovered",
}

// String returns the counter's wire name.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "counter_unknown"
	}
	return counterNames[c]
}

// Gauge identifies one instantaneous value.
type Gauge int

const (
	// FreeRingOccupancy is the number of chunk buffers sitting idle in
	// the sharded executor's free ring at the last broadcast: 0 means
	// the producer is starved by the slowest shard, nbuf means the
	// shards are starved by the producer.
	FreeRingOccupancy Gauge = iota
	// ActiveWorkloads is the number of workload executors currently
	// simulating.
	ActiveWorkloads
	numGauges
)

var gaugeNames = [numGauges]string{
	FreeRingOccupancy: "free_ring_occupancy",
	ActiveWorkloads:   "active_workloads",
}

// String returns the gauge's wire name.
func (g Gauge) String() string {
	if g < 0 || g >= numGauges {
		return "gauge_unknown"
	}
	return gaugeNames[g]
}

// Snapshot is a consistent-enough copy of a recorder's state:
// counters, gauges and latency histograms by wire name.  Individual
// values are read atomically; cross-counter consistency is not
// guaranteed while workers run, which is fine for heartbeats and exact
// once the run has quiesced.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
	// Hists carries every histogram that recorded anything: a stage's
	// under "stage_<name>", whose count and sum are the stage's
	// observations and total time, and the service set
	// (job_queue_wait, job_execution, ...) under their own names.
	Hists map[string]*HistSnap `json:"hists,omitempty"`
}

// Counter returns a counter's value by its identifier (0 if absent).
func (s *Snapshot) Counter(c Counter) uint64 { return s.Counters[c.String()] }

// Hist returns a histogram snapshot by its identifier (nil if absent).
func (s *Snapshot) Hist(h Hist) *HistSnap { return s.Hists[h.String()] }
