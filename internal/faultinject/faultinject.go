// Package faultinject deterministically injects faults into sweep
// execution, for testing the harness's fault tolerance end to end.
//
// A long simulation campaign is only trustworthy if every failure is
// detected and attributed rather than silently absorbed.  This package
// provides the offensive half of that proof: seed-driven wrappers that
// make trace sources fail or panic mid-stream, make shard workers and
// simulation units panic at chosen chunks, cancel contexts mid-pass,
// and corrupt serialised trace bytes -- all reproducibly, so a failing
// injection can be replayed from its seed.  The test suites (here and
// in internal/sweep) then assert the defensive half, attributed or
// clean: every injected fault either fails the sweep, with no result
// and an error attributed to its exact workload, point and shard, or
// never fires and leaves every run bit-identical to an undisturbed
// sweep.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"

	"subcache/internal/rng"
	"subcache/internal/sweep"
	"subcache/internal/trace"
)

// Fault enumerates the injectable fault kinds.
type Fault int

const (
	// ShortRead ends the trace source mid-stream with
	// io.ErrUnexpectedEOF, as a truncated trace file would.
	ShortRead Fault = iota
	// ParseError makes the trace source return a latched parse-style
	// error mid-stream, as a corrupt trace record would.
	ParseError
	// SourcePanic makes the trace source panic mid-stream.
	SourcePanic
	// UnitPanic panics inside one simulation unit (a multipass bundle
	// or fallback cache) at a chosen chunk, losing that unit's points.
	UnitPanic
	// ShardPanic panics inside one shard worker at a chosen chunk,
	// losing every point the shard owns.
	ShardPanic
	// Cancel cancels the sweep's context at a chosen chunk.
	Cancel
	numFaults
)

// String names the fault for test output.
func (f Fault) String() string {
	switch f {
	case ShortRead:
		return "short-read"
	case ParseError:
		return "parse-error"
	case SourcePanic:
		return "source-panic"
	case UnitPanic:
		return "unit-panic"
	case ShardPanic:
		return "shard-panic"
	case Cancel:
		return "cancel"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// ErrInjected is the base cause of every injected error, so tests can
// errors.Is their way to it through the sweep's attribution layers.
var ErrInjected = errors.New("faultinject: injected fault")

// Source wraps a sweep's packed word source with a fault that fires
// after a given number of words.  Errors are latched: once the source
// has failed it keeps failing, like the production trace readers.
type Source struct {
	inner sweep.PackedSource
	fault Fault
	left  int
	err   error
}

// NewSource arms fault to fire after the inner source has yielded
// after words.  Only the source-level faults (ShortRead, ParseError,
// SourcePanic) are meaningful here.
func NewSource(inner sweep.PackedSource, fault Fault, after int) *Source {
	return &Source{inner: inner, fault: fault, left: after}
}

// ReadPacked implements sweep.PackedSource: it passes words through
// until after of them have been read, then fails -- within the same
// call when the fill crosses that point, after the words before it.
func (s *Source) ReadPacked(dst []uint64) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if len(dst) <= s.left {
		n, err := s.inner.ReadPacked(dst)
		s.left -= n
		return n, err
	}
	n, err := s.inner.ReadPacked(dst[:s.left])
	s.left -= n
	if err != nil && (err != io.EOF || s.left > 0) {
		return n, err
	}
	// The fault fires on the word after the armed count, whether or not
	// the stream had more; a stream that ends sooner ends cleanly.
	switch s.fault {
	case ShortRead:
		s.err = fmt.Errorf("%w: %w", ErrInjected, io.ErrUnexpectedEOF)
	case ParseError:
		s.err = fmt.Errorf("%w: corrupt record", ErrInjected)
	case SourcePanic:
		s.err = fmt.Errorf("%w: source panicked", ErrInjected)
		panic("faultinject: injected source panic")
	default:
		s.err = fmt.Errorf("%w: %v misused as a source fault", ErrInjected, s.fault)
	}
	return n, s.err
}

// SourceHooks returns sweep hooks that arm a source-level fault on the
// named workload, after the given number of words.
func SourceHooks(workload string, fault Fault, after int) *sweep.Hooks {
	return &sweep.Hooks{
		WrapSource: func(w string, src sweep.PackedSource) sweep.PackedSource {
			if w != workload {
				return src
			}
			return NewSource(src, fault, after)
		},
	}
}

// UnitPanicHooks returns hooks that panic inside the simulation unit
// carrying the given point, on the named workload, when the unit
// reaches the given chunk.  The panic fires inside the unit's recovery
// boundary, so the sweep must fail with that unit's points attributed.
func UnitPanicHooks(workload string, target sweep.Point, chunk int) *sweep.Hooks {
	return &sweep.Hooks{
		BeforeUnit: func(w string, shard int, points []sweep.Point, c int) {
			if w != workload || c != chunk {
				return
			}
			for _, p := range points {
				if p == target {
					panic(fmt.Sprintf("faultinject: injected unit panic at %s chunk %d", target, c))
				}
			}
		},
	}
}

// ShardPanicHooks returns hooks that panic inside the given shard
// worker on the named workload at the given chunk, before the shard
// touches any of its units: the sweep must fail with the whole shard's
// points attributed to that shard.
func ShardPanicHooks(workload string, shard, chunk int) *sweep.Hooks {
	return &sweep.Hooks{
		BeforeChunk: func(w string, s, c int) {
			if w == workload && s == shard && c == chunk {
				panic(fmt.Sprintf("faultinject: injected shard panic at shard %d chunk %d", s, c))
			}
		},
	}
}

// CancelHooks returns hooks that cancel the given context when the
// named workload reaches the given chunk (on any shard or unit), plus
// the context to run the sweep under.  The sweep must abort with the
// context's error and return no partial result.
func CancelHooks(workload string, chunk int) (context.Context, *sweep.Hooks) {
	ctx, cancel := context.WithCancel(context.Background())
	fire := func(w string, c int) {
		if w == workload && c >= chunk {
			cancel()
		}
	}
	return ctx, &sweep.Hooks{
		BeforeChunk: func(w string, _, c int) { fire(w, c) },
		BeforeUnit:  func(w string, _ int, _ []sweep.Point, c int) { fire(w, c) },
	}
}

// TruncateTail returns data with its last n bytes removed: a partially
// written file, e.g. a gzip stream missing its footer.
func TruncateTail(data []byte, n int) []byte {
	if n >= len(data) {
		return nil
	}
	return append([]byte(nil), data[:len(data)-n]...)
}

// FlipByte returns data with every bit of byte i inverted: mid-stream
// corruption that checksums and record validation must catch.
func FlipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i%len(out)] ^= 0xFF
	return out
}

// Injection is one planned fault: what to inject and where.
type Injection struct {
	Fault    Fault
	Workload string
	// After is the reference count before a source-level fault fires.
	After int
	// Chunk is the chunk index at which a hook-level fault fires.
	Chunk int
	// Shard is the shard worker a ShardPanic targets.
	Shard int
	// Point indexes the request's point list for a UnitPanic target.
	Point int
}

// String renders the injection for test names and logs.
func (in Injection) String() string {
	return fmt.Sprintf("%s/%s/after=%d/chunk=%d/shard=%d/point=%d",
		in.Fault, in.Workload, in.After, in.Chunk, in.Shard, in.Point)
}

// Plan derives a deterministic fault campaign from a seed: n
// injections across the given workloads, a trace of refs references,
// points grid points and shards shard workers.  Injection i injects
// Fault(i % numFaults), so a campaign of at least numFaults injections
// crosses every recovery boundary; every other field is drawn from the
// seed.  The same seed always yields the same campaign, so a CI failure
// reproduces locally.
func Plan(seed uint64, n int, workloads []string, refs, points, shards int) []Injection {
	r := rng.New(seed)
	chunks := (refs + trace.ChunkRefs - 1) / trace.ChunkRefs
	out := make([]Injection, n)
	for i := range out {
		out[i] = Injection{
			Fault:    Fault(i % int(numFaults)),
			Workload: workloads[r.Intn(len(workloads))],
			After:    r.Intn(refs),
			Chunk:    r.Intn(chunks),
			Shard:    r.Intn(shards),
			Point:    r.Intn(points),
		}
	}
	return out
}

// Apply arms one injection against a sweep request, returning the
// context to run it under.  The request's Hooks field is overwritten.
func Apply(req *sweep.Request, in Injection) context.Context {
	switch in.Fault {
	case ShortRead, ParseError, SourcePanic:
		req.Hooks = SourceHooks(in.Workload, in.Fault, in.After)
		return context.Background()
	case UnitPanic:
		req.Hooks = UnitPanicHooks(in.Workload, req.Points[in.Point%len(req.Points)], in.Chunk)
		return context.Background()
	case ShardPanic:
		req.Hooks = ShardPanicHooks(in.Workload, in.Shard, in.Chunk)
		return context.Background()
	case Cancel:
		ctx, hooks := CancelHooks(in.Workload, in.Chunk)
		req.Hooks = hooks
		return ctx
	default:
		panic(fmt.Sprintf("faultinject: unknown fault %v", in.Fault))
	}
}
