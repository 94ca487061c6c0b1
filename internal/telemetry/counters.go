package telemetry

// The counter/gauge/stage catalogue.  Every identifier is a dense
// index into a pre-sized atomic array, so an update is one atomic add
// with no map lookups and no allocation.  Names are the stable wire
// vocabulary: they appear in heartbeat snapshots and RUN.json, and
// docs/OBSERVABILITY.md documents each one; add new entries at the end
// of an enum and to its name table together.

// Counter identifies one monotonic counter.
type Counter int

const (
	// RefsRead counts word references produced by trace sources
	// (synthetic generators or trace-file readers), once per reference
	// regardless of how many configurations consume it.
	RefsRead Counter = iota
	// RefsSimulated counts references fed into simulation units: one
	// reference consumed by k units counts k.  This is the pipeline's
	// work measure and the numerator of the progress line's refs/sec.
	RefsSimulated
	// ChunksBroadcast counts trace chunks the sharded executor's
	// producer handed to its shard workers.
	ChunksBroadcast
	// FamiliesFlushed counts multipass families finalised by
	// FlushUsage at the end of a pass.
	FamiliesFlushed
	// CheckpointRecords counts workload entries appended to the
	// checkpoint journal.
	CheckpointRecords
	// CheckpointFsyncNanos accumulates the fsync latency of those
	// appends; divide by CheckpointRecords for the mean.
	CheckpointFsyncNanos
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
	// StackUnitsFlushed counts stack-distance engine units (one per
	// set partition of a stack group) finalised by FlushUsage at the
	// end of a pass, the stackdist engine's analogue of
	// FamiliesFlushed.
	StackUnitsFlushed
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
	// (trace-source I/O; see sweep.Transient), each preceded by an
	// exponential-backoff delay.
	JobRetries
	// JobsRecovered counts jobs re-admitted from the service's job
	// journal at startup: admitted or started at crash time, never
	// terminal.
	JobsRecovered
	// JobJournalRecords counts state-transition records appended to the
	// service's job journal, fsync included.
	JobJournalRecords
	numCounters
)

// counterNames is the stable wire name of each counter.
var counterNames = [numCounters]string{
	RefsRead:                "refs_read",
	RefsSimulated:           "refs_simulated",
	ChunksBroadcast:         "chunks_broadcast",
	FamiliesFlushed:         "families_flushed",
	CheckpointRecords:       "checkpoint_records",
	CheckpointFsyncNanos:    "checkpoint_fsync_nanos",
	PointsPlanned:           "points_planned",
	PointsCompleted:         "points_completed",
	PointsFailed:            "points_failed",
	PointsResumed:           "points_resumed",
	EventsDropped:           "events_dropped",
	StackUnitsFlushed:       "stack_units_flushed",
	RequestsAdmitted:        "requests_admitted",
	RequestsRejected:        "requests_rejected",
	RequestsDeduped:         "requests_deduped",
	CacheHits:               "cache_hits",
	CacheEvictions:          "cache_evictions",
	CacheCorruptQuarantined: "cache_corrupt_quarantined",
	JobRetries:              "job_retries",
	JobsRecovered:           "jobs_recovered",
	JobJournalRecords:       "job_journal_records",
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
	// QueueDepth is the number of sweep requests waiting on the
	// service's worker queue (admitted but not yet running).
	QueueDepth
	numGauges
)

var gaugeNames = [numGauges]string{
	FreeRingOccupancy: "free_ring_occupancy",
	ActiveWorkloads:   "active_workloads",
	QueueDepth:        "queue_depth",
}

// String returns the gauge's wire name.
func (g Gauge) String() string {
	if g < 0 || g >= numGauges {
		return "gauge_unknown"
	}
	return gaugeNames[g]
}

// Stage identifies one pipeline stage for monotonic wall-time
// accumulation.  Stages overlap across goroutines (a sweep's shards
// simulate while its producer reads), so stage times sum to more than
// the wall clock on purpose: they answer "where do worker-seconds go",
// not "what fraction of the run elapsed here".
type Stage int

const (
	// StageTraceRead is producer time filling broadcast chunks from
	// the word source, which generates the trace straight into packed
	// words.
	StageTraceRead Stage = iota
	// StageDecode is shard time unpacking broadcast chunks back to
	// references for the shard's reference caches (trace.UnpackRefs);
	// only shards that host reference caches record it.
	StageDecode
	// StageBroadcast is producer time distributing chunks to shard
	// queues, including time blocked on an empty free ring.
	StageBroadcast
	// StageSimulate is shard/unit time inside the access kernels,
	// excluding decode.
	StageSimulate
	// StageFlush is time finalising usage counters at end of pass.
	StageFlush
	// StageCheckpoint is time appending to the checkpoint journal,
	// fsync included.
	StageCheckpoint
	numStages
)

var stageNames = [numStages]string{
	StageTraceRead:  "trace_read",
	StageDecode:     "decode",
	StageBroadcast:  "broadcast",
	StageSimulate:   "simulate",
	StageFlush:      "flush",
	StageCheckpoint: "checkpoint",
}

// String returns the stage's wire name.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "stage_unknown"
	}
	return stageNames[s]
}

// ShardSnap is one shard worker's aggregate in a snapshot.
type ShardSnap struct {
	Shard  int     `json:"shard"`
	Refs   uint64  `json:"refs"`
	BusyMS float64 `json:"busy_ms"`
}

// Snapshot is a consistent-enough copy of a recorder's state: counters
// and gauges by wire name, stage wall-times in milliseconds with their
// observation counts (mean stage latency = stages_ms[s]/stages_n[s]),
// latency histograms, and per-shard aggregates.  Individual values are
// read atomically; cross-counter consistency is not guaranteed while
// workers run, which is fine for heartbeats and exact once the run has
// quiesced.
type Snapshot struct {
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]int64   `json:"gauges,omitempty"`
	StagesMS map[string]float64 `json:"stages_ms,omitempty"`
	// StagesN counts Observe calls per stage, so any heartbeat or
	// manifest yields a mean stage latency, not just a total.
	StagesN map[string]uint64 `json:"stages_n,omitempty"`
	// Hists carries the latency histograms: the service-level set
	// (job_queue_wait, job_execution, ...) under their own names and
	// each stage's under "stage_<name>".
	Hists  map[string]*HistSnap `json:"hists,omitempty"`
	Shards []ShardSnap          `json:"shards,omitempty"`
}

// Counter returns a counter's value by its identifier (0 if absent).
func (s *Snapshot) Counter(c Counter) uint64 { return s.Counters[c.String()] }

// Hist returns a histogram snapshot by its identifier (nil if absent).
func (s *Snapshot) Hist(h Hist) *HistSnap { return s.Hists[h.String()] }
