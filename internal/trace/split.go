package trace

import (
	"fmt"
	"io"
	"math/bits"

	"subcache/internal/addr"
)

// Splitter converts processor-level references of arbitrary size into a
// stream of word-aligned, word-sized memory accesses.
//
// The paper: "Traces were created for the Z8000 and PDP-11 by assuming
// 2 byte data paths and for the System/370 and VAX-11 assuming 4 byte
// data paths to memory."  A 4-byte VAX load that is 2-byte aligned on a
// 4-byte data path touches two memory words; each touched word becomes
// one access of the same kind as the original reference.  The split
// stream is what the cache simulator and the no-cache bus-traffic
// baseline both consume, so the traffic ratio denominator is exactly the
// number of countable accesses emitted here.
type Splitter struct {
	src       Source
	wordShift uint

	// pending words of the reference currently being expanded.
	cur     Ref
	pending int
}

// NewSplitter returns a Source emitting word-sized accesses for the
// given data-path width in bytes (a power of two, typically 2 or 4).
func NewSplitter(src Source, wordSize int) *Splitter {
	if wordSize <= 0 || !addr.IsPow2(uint64(wordSize)) {
		panic(fmt.Sprintf("trace.NewSplitter: word size %d is not a positive power of two", wordSize))
	}
	return &Splitter{src: src, wordShift: addr.Log2(uint64(wordSize))}
}

// WordSize returns the data-path width in bytes.
func (s *Splitter) WordSize() int { return 1 << s.wordShift }

// Next implements Source.  Every returned Ref has Size == WordSize() and
// an address aligned to the word size.
func (s *Splitter) Next() (Ref, error) {
	if s.pending == 0 {
		r, err := s.src.Next()
		if err != nil {
			return Ref{}, err
		}
		s.cur, s.pending = SplitRef(r, s.wordShift)
	}
	out := s.cur
	s.pending--
	s.cur.Addr += 1 << s.wordShift
	return out, nil
}

// SplitRef returns the first word access r splits into on a data path
// of 1<<wordShift bytes -- word-aligned, word-sized, of r's kind --
// and how many consecutive words r touches; a zero Size counts as one
// byte.  It is the split arithmetic of Splitter, CountWords and any
// source that splits references itself.
func SplitRef(r Ref, wordShift uint) (first Ref, words int) {
	size := uint64(r.Size)
	if size == 0 {
		size = 1
	}
	mask := addr.Addr(1)<<wordShift - 1
	lo := r.Addr &^ mask
	hi := (r.Addr + addr.Addr(size-1)) &^ mask
	return Ref{Addr: lo, Kind: r.Kind, Size: uint8(1) << wordShift}, int((hi-lo)>>wordShift) + 1
}

// CountWords reports how many word-sized accesses a reference expands to
// on a data path of the given width.
func CountWords(r Ref, wordSize int) int {
	_, n := SplitRef(r, uint(bits.TrailingZeros64(uint64(wordSize))))
	return n
}

// ChunkRefs is the standard batching granularity of the simulation
// harness: 8192 references (~128 KiB of trace.Ref, 64 KiB packed by
// PackRefs) keeps a chunk inside L2 while amortising per-chunk
// overhead (channel traffic, cancellation checks, interface dispatch)
// to a few operations per hundred thousand accesses.  Cache.Run,
// multipass.Family.Run and the sweep executor all feed the access
// kernels in chunks of this size.
const ChunkRefs = 8192

// ReadChunk fills buf with the next references from src, returning how
// many were stored.  The error is io.EOF only at end of stream --
// possibly alongside n > 0 for a final partial chunk -- and any other
// error reports a failed read after n good references.  It is the
// batching primitive behind the sweep harness's chunk-broadcast
// executor, which streams a trace through reusable fixed-size buffers
// instead of materialising it.
func ReadChunk(src Source, buf []Ref) (int, error) {
	for n := range buf {
		r, err := src.Next()
		if err != nil {
			return n, err
		}
		buf[n] = r
	}
	return len(buf), nil
}

// SplitAll is a convenience that fully expands src through a splitter,
// returning the word accesses.  Intended for tests and small traces.
func SplitAll(src Source, wordSize int) ([]Ref, error) {
	sp := NewSplitter(src, wordSize)
	var out []Ref
	for {
		r, err := sp.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}
