// Package trace defines the memory-reference trace model used
// throughout the simulator: the Ref record, streaming Source interfaces,
// composable transformations (data-path splitting, filtering, limiting)
// and text and binary file formats.
//
// The paper drives its simulations from address traces of real programs
// (Tables 2–5), truncated to one million references with no context
// switches.  This package provides the identical interface for both
// file-backed traces and the synthetic workload generators in
// internal/synth.
package trace

import (
	"context"
	"errors"
	"fmt"
	"io"

	"subcache/internal/addr"
)

// Kind classifies a memory reference.  The paper computes its headline
// metrics over instruction fetches and data reads only ("write-back
// issues were filtered out of our results"); writes are carried in the
// trace so that cache implementations may maintain correct contents, but
// are excluded from miss- and traffic-ratio accounting.
type Kind uint8

const (
	// IFetch is an instruction fetch.
	IFetch Kind = iota
	// Read is a data read.
	Read
	// Write is a data write.
	Write
	numKinds
)

// String returns the conventional single-word name of the kind.
func (k Kind) String() string {
	switch k {
	case IFetch:
		return "ifetch"
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Countable reports whether references of this kind contribute to the
// paper's miss and traffic ratios (instruction fetches and reads do;
// writes do not).
func (k Kind) Countable() bool { return k == IFetch || k == Read }

// Ref is one memory reference: a byte address, an access kind and the
// number of bytes requested.  Size is the processor-level request size
// (e.g. a 4-byte VAX longword load); the data-path Splitter turns such
// requests into word-sized memory accesses.
type Ref struct {
	Addr addr.Addr
	Kind Kind
	Size uint8
}

// String formats the reference as "<kind> <addr>/<size>".
func (r Ref) String() string {
	return fmt.Sprintf("%s %s/%d", r.Kind, r.Addr, r.Size)
}

// Source is a stream of references.  Next returns io.EOF after the last
// reference.  Implementations need not be safe for concurrent use; the
// sweep harness gives each simulation its own Source.
type Source interface {
	Next() (Ref, error)
}

// SliceSource adapts an in-memory slice of references to a Source.
type SliceSource struct {
	refs []Ref
	pos  int
}

// NewSliceSource returns a Source that yields refs in order.  The slice
// is not copied; the caller must not mutate it while the source is in
// use.
func NewSliceSource(refs []Ref) *SliceSource {
	return &SliceSource{refs: refs}
}

// Next implements Source.
func (s *SliceSource) Next() (Ref, error) {
	if s.pos >= len(s.refs) {
		return Ref{}, io.EOF
	}
	r := s.refs[s.pos]
	s.pos++
	return r, nil
}

// Reset rewinds the source to the beginning so the same slice can be
// replayed through another cache configuration.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of references in the underlying slice.
func (s *SliceSource) Len() int { return len(s.refs) }

// Limit wraps src, terminating the stream after n references.  The
// paper's runs use n = 1,000,000.
func Limit(src Source, n int) Source { return &limitSource{src: src, left: n} }

type limitSource struct {
	src  Source
	left int
}

func (l *limitSource) Next() (Ref, error) {
	if l.left <= 0 {
		return Ref{}, io.EOF
	}
	r, err := l.src.Next()
	if err != nil {
		return Ref{}, err
	}
	l.left--
	return r, nil
}

// FilterKinds wraps src, passing through only references whose kind
// satisfies keep.
func FilterKinds(src Source, keep func(Kind) bool) Source {
	return &filterSource{src: src, keep: keep}
}

type filterSource struct {
	src  Source
	keep func(Kind) bool
}

func (f *filterSource) Next() (Ref, error) {
	for {
		r, err := f.src.Next()
		if err != nil {
			return Ref{}, err
		}
		if f.keep(r.Kind) {
			return r, nil
		}
	}
}

// Collect drains src into a slice, up to max references (max <= 0 means
// unlimited).  It returns the references read and any error other than
// io.EOF.
func Collect(src Source, max int) ([]Ref, error) {
	var refs []Ref
	for max <= 0 || len(refs) < max {
		r, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return refs, err
		}
		refs = append(refs, r)
	}
	return refs, nil
}

// FuncSource adapts a function to the Source interface, which keeps the
// synthetic generators free of interface boilerplate.
type FuncSource func() (Ref, error)

// Next implements Source.
func (f FuncSource) Next() (Ref, error) { return f() }

// WithContext wraps src so the stream ends with ctx's error once ctx is
// cancelled or its deadline expires.  The check runs once per ChunkRefs
// references -- the same granularity at which the sweep executors
// notice cancellation -- so the per-reference hot path stays a counter
// decrement.  The error is latched: every Next after cancellation keeps
// returning it.
func WithContext(ctx context.Context, src Source) Source {
	return &ctxSource{ctx: ctx, src: src}
}

type ctxSource struct {
	ctx  context.Context
	src  Source
	n    int // references until the next ctx poll
	done error
}

func (c *ctxSource) Next() (Ref, error) {
	if c.done != nil {
		return Ref{}, c.done
	}
	if c.n <= 0 {
		if err := c.ctx.Err(); err != nil {
			c.done = err
			return Ref{}, err
		}
		c.n = ChunkRefs
	}
	c.n--
	return c.src.Next()
}
