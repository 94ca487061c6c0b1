// Failure handling for sweep execution: typed, attributed errors and
// panic recovery.
//
// A million-reference grid sweep is only trustworthy if a failure is
// detected and attributed rather than silently absorbed, and one
// panicking worker must not crash the process.  Every simulation unit
// (a multipass bundle or a fallback reference cache) therefore runs its
// per-chunk work and its flush inside a recovery boundary, as do the
// hooks and the trace source: a panic becomes a PanicError, which is
// wrapped in a PointError naming the exact workload, point and shard
// that failed.  Sweeps fail fast: the first failure cancels the sweep
// and is its error, and no partial result is returned.  The paper's
// per-architecture figures average every trace of a suite, so a
// summary over the survivors would be a different figure; recovery is
// the checkpoint journal, which resumes every completed workload.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"

	"subcache/internal/cache"
	"subcache/internal/metrics"
	"subcache/internal/multipass"
	"subcache/internal/telemetry"
	"subcache/internal/trace"
)

// PointError attributes one simulation failure to its exact origin: the
// workload whose trace was being replayed, the grid point (cache
// configuration) that was lost, and the shard worker that hosted it.
type PointError struct {
	// Workload names the trace suite member being simulated.
	Workload string
	// Point is the lost grid point.  The zero Point marks a
	// workload-scope failure (e.g. a trace read error), which loses
	// every point of the workload; see WorkloadScope.
	Point Point
	// Shard is the shard worker index that hosted the failure: always
	// >= 0 for a point-scope failure, and -1 for a workload-scope one
	// (a trace-stream or checkpoint error), which no shard owns.
	Shard int
	// Cause is the underlying failure: a trace error, a configuration
	// error, or a *PanicError for a recovered panic.
	Cause error
}

// WorkloadScope reports whether the failure lost the whole workload
// rather than one point: trace-stream errors invalidate every
// configuration's counters, so no partial runs are reported for it.
func (e *PointError) WorkloadScope() bool { return e.Point == Point{} }

// Error renders the attribution on one line.
func (e *PointError) Error() string {
	s := "sweep: workload " + e.Workload
	if !e.WorkloadScope() {
		s += " point " + e.Point.String()
	}
	if e.Shard >= 0 {
		s += fmt.Sprintf(" shard %d", e.Shard)
	}
	return s + ": " + e.Cause.Error()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PointError) Unwrap() error { return e.Cause }

// event renders the attributed failure as its telemetry event: a
// failed workload emits one error-attributed event per PointError of
// its failure, the one the sweep returns among them.
func (e *PointError) event() *telemetry.Event {
	var pe *PanicError
	point := ""
	if !e.WorkloadScope() {
		point = e.Point.String()
	}
	return &telemetry.Event{Type: telemetry.EventErrorAttributed, Error: &telemetry.ErrorAttributed{
		Workload: e.Workload,
		Point:    point,
		Shard:    e.Shard,
		Cause:    e.Cause.Error(),
		Panic:    errors.As(e.Cause, &pe),
	}}
}

// Transient reports whether a sweep failure is plausibly transient and
// worth retrying: a workload-scope PointError, which loses the workload
// without poisoning any state, whose cause is neither a recovered panic
// (a programming error repeats identically) nor the caller's own
// cancellation or deadline.  Two failures are workload-scope: a
// trace-stream error such as a short read or a corrupt record, and a
// failed append to the checkpoint journal.  Point-scope failures
// (configuration construction, unit panics) and non-attributed errors
// are never transient.  The sweep service retries transient failures
// with exponential backoff; because completed workloads sit in the
// checkpoint journal, a retry resumes instead of restarting.  The
// service's trace streams are synthetic and do not fail, so outside
// fault injection it retries only after a failed checkpoint append.
func Transient(err error) bool {
	var pe *PointError
	if !errors.As(err, &pe) || !pe.WorkloadScope() {
		return false
	}
	var pan *PanicError
	if errors.As(pe.Cause, &pan) {
		return false
	}
	if errors.Is(pe.Cause, context.Canceled) || errors.Is(pe.Cause, context.DeadlineExceeded) {
		return false
	}
	return true
}

// PanicError is a panic recovered from a simulation unit, a hook, or a
// trace source, preserving the panic value and the stack at the point
// of recovery.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value; the stack is kept for callers that
// want to log it.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// safeCall runs fn, converting a panic into a *PanicError.
func safeCall(fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// Hooks instruments the execution layer.  It exists for the
// fault-injection harness (internal/faultinject) and tests: every hook
// is called from hot simulation paths, under the same panic-recovery
// boundaries as the simulation itself, so an injected panic is
// attributed exactly like a real one.  All hooks may be nil.
type Hooks struct {
	// WrapSource, if set, wraps each workload's packed word source
	// before the executor starts streaming it -- after every
	// simulation unit is built, so a construction error streams
	// nothing.  Faults injected here surface as workload-scope trace
	// errors.
	WrapSource func(workload string, src PackedSource) PackedSource
	// BeforeChunk is called by each shard worker before it simulates a
	// chunk.  A panic here fails the sweep with every point the shard
	// owns (shard-scope).
	BeforeChunk func(workload string, shard, chunk int)
	// BeforeUnit is called before one simulation unit (a multipass
	// bundle or a reference cache) processes a chunk; shard is its
	// owning worker and points lists the grid points the unit carries.
	// A panic here fails the sweep with exactly that unit's points.
	BeforeUnit func(workload string, shard int, points []Point, chunk int)
}

func (h *Hooks) wrapSource(workload string, src PackedSource) PackedSource {
	if h == nil || h.WrapSource == nil {
		return src
	}
	return h.WrapSource(workload, src)
}

// simUnit is one simulation unit: a multipass bundle or a single
// reference cache, plus the grid points it carries.  Exactly one
// goroutine drives a unit, so no locking is needed.
type simUnit struct {
	bundle *multipass.Bundle
	cache  *cache.Cache
	// idxs are the config indexes into the request's cfgs/points: a
	// bundle's lanes family by family, each family's in lane order.
	idxs []int
	pts  []Point // attributed points, aligned with idxs (nil for RunConfigs)
}

// families is the number of families a bundle runs, and one for a
// reference cache: the units that refs_simulated counts, as it did
// before families ran in bundles.
func (u *simUnit) families() int {
	if u.bundle == nil {
		return 1
	}
	return len(u.bundle.Families())
}

// accessBatch feeds one chunk to the unit inside a recovery boundary,
// calling the BeforeUnit hook (if any) inside the same boundary.
// Bundles read the packed words as broadcast; reference caches read
// refs, the same chunk decoded by the owning shard.
func (u *simUnit) accessBatch(packed []uint64, refs []trace.Ref, hooks *Hooks, workload string, shard, chunk int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if hooks != nil && hooks.BeforeUnit != nil {
		hooks.BeforeUnit(workload, shard, u.pts, chunk)
	}
	switch {
	case u.bundle != nil:
		u.bundle.AccessBatchPacked(packed)
	default:
		u.cache.AccessBatch(refs)
	}
	return nil
}

// collect finalises a unit and writes its runs into runs (indexed by
// config index), inside a recovery boundary of its own: a panic while
// flushing loses only this unit's points.
func (u *simUnit) collect(traceName string, runs []metrics.Run) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	switch {
	case u.bundle != nil:
		u.bundle.FlushUsage()
		idxs := u.idxs
		for _, f := range u.bundle.Families() {
			for j := 0; j < f.Lanes(); j++ {
				runs[idxs[j]] = metrics.NewRun(traceName, f.Config(j), f.Stats(j))
			}
			idxs = idxs[f.Lanes():]
		}
	default:
		u.cache.FlushUsage()
		runs[u.idxs[0]] = metrics.NewRun(traceName, u.cache.Config(), u.cache.Stats())
	}
	return nil
}

// unitFailure records the failure that stopped a single-workload
// executor -- a unit, or a whole shard -- before translation into
// per-point PointErrors.  idxs are the config indexes it lost.
type unitFailure struct {
	idxs  []int
	shard int
	cause error
}

// pointErrors expands the failure into one PointError per lost point,
// in canonical point order (pointLess).
func (f *unitFailure) pointErrors(workload string, points []Point) []*PointError {
	out := make([]*PointError, len(f.idxs))
	for i, k := range f.idxs {
		out[i] = &PointError{Workload: workload, Point: points[k], Shard: f.shard, Cause: f.cause}
	}
	sort.Slice(out, func(i, j int) bool { return pointLess(out[i].Point, out[j].Point) })
	return out
}
