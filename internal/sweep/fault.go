// Fault tolerance for sweep execution: typed, attributed errors and
// panic isolation.
//
// A million-reference grid sweep is only trustworthy if partial
// failures are detected and attributed rather than silently absorbed --
// or worse, if one corrupt trace byte or one panicking worker discards
// the whole grid.  Every simulation unit (a multipass bundle or a
// fallback reference cache) therefore runs its per-chunk work inside a
// recovery boundary: a panic becomes a PanicError, which is wrapped in
// a PointError naming the exact workload, point and shard that died.
// Under the default fail-fast policy the first PointError aborts the
// sweep (as before, but without crashing the process); under
// Request.ContinueOnError the dead unit is retired, its points are
// reported in Result.Errors, and every other unit keeps consuming the
// complete ordered stream -- so surviving points stay bit-identical to
// an undisturbed run.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

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

// event renders the attributed failure as its telemetry event: every
// PointError a sweep reports is mirrored by exactly one
// error-attributed event on the stream.
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
// worth retrying: a workload-scope PointError -- a trace-source failure
// such as a short read or a corrupt record, which loses the workload
// without poisoning any state -- whose cause is neither a recovered
// panic (a programming error repeats identically) nor the caller's own
// cancellation or deadline.  Point-scope failures (configuration
// construction, unit panics) and non-attributed errors are never
// transient.  The sweep service retries transient failures with
// exponential backoff; because completed workloads sit in the
// checkpoint journal, a retry resumes instead of restarting.
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
	// simulation unit is built, so a fail-fast construction error
	// streams nothing.  Faults injected here surface as workload-scope
	// trace errors.
	WrapSource func(workload string, src PackedSource) PackedSource
	// BeforeChunk is called by each shard worker before it simulates a
	// chunk.  A panic here kills every unit the shard owns
	// (shard-scope).
	BeforeChunk func(workload string, shard, chunk int)
	// BeforeUnit is called before one simulation unit (a multipass
	// bundle or a reference cache) processes a chunk; shard is its
	// owning worker and points lists the grid points the unit carries.
	// A panic here kills exactly that unit.
	BeforeUnit func(workload string, shard int, points []Point, chunk int)
}

func (h *Hooks) wrapSource(workload string, src PackedSource) PackedSource {
	if h == nil || h.WrapSource == nil {
		return src
	}
	return h.WrapSource(workload, src)
}

// simUnit is one independently failable simulation unit: a multipass
// bundle or a single reference cache, plus the grid points it carries.
// Exactly one goroutine drives a unit, so no locking is needed; dead
// units stop simulating but their stream keeps flowing to the rest.
type simUnit struct {
	bundle *multipass.Bundle
	cache  *cache.Cache
	// idxs are the config indexes into the request's cfgs/points: a
	// bundle's lanes family by family, each family's in lane order.
	idxs []int
	pts  []Point // attributed points, aligned with idxs (nil for RunConfigs)
	dead bool
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

// unitFailure records one dead unit inside a single-workload executor,
// before translation into per-point PointErrors.
type unitFailure struct {
	idxs  []int
	shard int
	cause error
}

// pointErrors expands per-unit failures into one PointError per lost
// point, in config-index order.
func pointErrors(workload string, points []Point, failed []unitFailure) []*PointError {
	var out []*PointError
	for _, f := range failed {
		for _, k := range f.idxs {
			out = append(out, &PointError{Workload: workload, Point: points[k], Shard: f.shard, Cause: f.cause})
		}
	}
	return out
}
