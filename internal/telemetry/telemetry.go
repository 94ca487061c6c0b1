// Package telemetry is the observability layer of the simulation
// pipeline: runtime counters, latency histograms, a structured event
// stream, run manifests and profiling hooks, shared by every command
// and threaded through the sweep executors.
//
// The design constraints come from the sweep kernel it instruments:
//
//   - Zero dependencies: stdlib only, like the rest of the repository.
//   - Allocation-conscious: counter and gauge updates are single atomic
//     operations on pre-sized arrays, and every hot-path call site sits
//     at chunk granularity (trace.ChunkRefs references), never per
//     reference, so the access kernel's 0 allocs/op contract
//     (TestAccessNoAllocs, TestFamilyAccessNoAllocs) is untouched.
//   - Observation only: a Recorder never feeds back into simulation, so
//     results with telemetry on are bit-identical to results with it
//     off (enforced by TestTelemetryDoesNotPerturbResults).
//
// The zero value of the layer is off: a nil Recorder (normalised by
// OrNop) costs one predictable branch per chunk and nothing else.
//
// docs/OBSERVABILITY.md documents the counter catalogue, the event
// schemas and the RUN.json manifest format.
package telemetry

import "time"

// Recorder receives telemetry from the pipeline.  Implementations must
// be safe for concurrent use from every sweep worker; all methods must
// be non-blocking and cheap, because they are called at chunk
// boundaries of hot simulation loops.
//
// Two implementations exist: Nop (the default, all methods free) and
// Run (atomic counters plus an optional event sink and heartbeat).
type Recorder interface {
	// Enabled reports whether the recorder observes anything at all.
	// Hot paths hoist this to skip clock reads when telemetry is off.
	Enabled() bool
	// Add increments a monotonic counter.
	Add(c Counter, n uint64)
	// SetGauge records the current value of an instantaneous gauge.
	SetGauge(g Gauge, v int64)
	// Observe records one duration in a latency histogram: a pipeline
	// stage or a service hot point.
	Observe(h Hist, d time.Duration)
	// Emit appends a structured event to the recorder's sink, stamping
	// its sequence number and elapsed time.  Events are a side channel:
	// emission failures are counted, never propagated into simulation.
	Emit(ev *Event)
}

// nop is the disabled recorder.
type nop struct{}

func (nop) Enabled() bool               { return false }
func (nop) Add(Counter, uint64)         {}
func (nop) SetGauge(Gauge, int64)       {}
func (nop) Observe(Hist, time.Duration) {}
func (nop) Emit(*Event)                 {}

// Nop is the recorder that records nothing, the pipeline-wide default.
var Nop Recorder = nop{}

// OrNop normalises an optional recorder: nil becomes Nop, so call sites
// never branch on nil.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}
