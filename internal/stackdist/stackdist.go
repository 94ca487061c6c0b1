// Package stackdist implements Mattson's single-pass stack-distance
// algorithm (Mattson, Gecsei, Slutz & Traiger, 1970 -- the paper's
// citation [16] for why "LRU permits more efficient simulation").
//
// For an LRU-managed fully-associative cache, the miss ratio at *every*
// capacity can be computed in one pass over the trace: a reference hits
// in a cache of capacity C blocks exactly when its LRU stack distance is
// less than C.  The same property holds per set for a set-associative
// cache with a fixed set mapping, sweeping associativity instead of
// capacity.
//
// The simulator package uses stackdist both as a fast way to sweep cache
// sizes and as an independent oracle for validating the event-driven
// simulator in internal/cache.
package stackdist

import (
	"fmt"
	"io"

	"subcache/internal/addr"
	"subcache/internal/trace"
)

// Profiler computes LRU stack distances at a fixed block granularity.
// Writes can be included or excluded to match the metric being studied.
type Profiler struct {
	blockShift uint
	numSets    int
	setMask    addr.Addr

	// stacks[s] is set s's LRU stack, most recent first.
	stacks [][]addr.Addr

	// hist[d] counts references with stack distance d (distance 0 = the
	// most recently used block); cold counts first-touch references,
	// whose distance is infinite.
	hist  []uint64
	cold  uint64
	total uint64

	countWrites bool
}

// New returns a Profiler at the given block size.  numSets > 1 profiles
// a set-associative mapping (distance then measures depth within the
// reference's set, so capacity sweeps become associativity sweeps);
// numSets == 1 is the classic fully-associative profile.
func New(blockSize, numSets int, countWrites bool) (*Profiler, error) {
	if blockSize <= 0 || !addr.IsPow2(uint64(blockSize)) {
		return nil, fmt.Errorf("stackdist: block size %d not a positive power of two", blockSize)
	}
	if numSets <= 0 || !addr.IsPow2(uint64(numSets)) {
		return nil, fmt.Errorf("stackdist: set count %d not a positive power of two", numSets)
	}
	return &Profiler{
		blockShift:  addr.Log2(uint64(blockSize)),
		numSets:     numSets,
		setMask:     addr.Addr(numSets - 1),
		stacks:      make([][]addr.Addr, numSets),
		countWrites: countWrites,
	}, nil
}

// Touch processes one reference and returns its stack distance
// (-1 for a cold first touch, or for an uncounted write).
func (p *Profiler) Touch(r trace.Ref) int {
	if r.Kind == trace.Write && !p.countWrites {
		return -1
	}
	block := r.Addr >> p.blockShift
	set := int(block & p.setMask)
	stack := p.stacks[set]
	p.total++

	// Linear move-to-front.  Stack distances in real (and realistic
	// synthetic) traces are small with overwhelming frequency, so the
	// expected cost per touch is modest even though the worst case is
	// the footprint size.
	for i, b := range stack {
		if b == block {
			copy(stack[1:i+1], stack[:i])
			stack[0] = block
			p.record(i)
			return i
		}
	}
	p.stacks[set] = append(stack, 0)
	stack = p.stacks[set]
	copy(stack[1:], stack)
	stack[0] = block
	p.cold++
	return -1
}

func (p *Profiler) record(d int) {
	for d >= len(p.hist) {
		p.hist = append(p.hist, 0)
	}
	p.hist[d]++
}

// Run drives the profiler from a source until EOF.
func (p *Profiler) Run(src trace.Source) error {
	for {
		r, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		p.Touch(r)
	}
}

// Total returns the number of counted references.
func (p *Profiler) Total() uint64 { return p.total }

// Cold returns the number of first-touch (infinite-distance) references,
// which is the number of distinct blocks touched.
func (p *Profiler) Cold() uint64 { return p.cold }

// Histogram returns a copy of the stack-distance histogram; index d is
// the count of references at distance d.
func (p *Profiler) Histogram() []uint64 {
	out := make([]uint64, len(p.hist))
	copy(out, p.hist)
	return out
}

// Misses returns the number of misses a fully-associative LRU cache of
// the given capacity (in blocks per set; associativity when numSets > 1)
// would take: every reference at distance >= capacity plus all cold
// references.
func (p *Profiler) Misses(capacity int) uint64 {
	if capacity < 0 {
		capacity = 0
	}
	m := p.cold
	for d := capacity; d < len(p.hist); d++ {
		m += p.hist[d]
	}
	return m
}

// MissRatio returns Misses(capacity) / Total().
func (p *Profiler) MissRatio(capacity int) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.Misses(capacity)) / float64(p.total)
}

// Percentile returns the smallest capacity (in blocks) at which the hit
// ratio reaches q (0 < q <= 1), or -1 if even a cache holding the whole
// footprint cannot (because of cold misses).  Useful for characterising
// a workload's working-set size.
func (p *Profiler) Percentile(q float64) int {
	if p.total == 0 {
		return -1
	}
	need := uint64(q * float64(p.total))
	var cum uint64
	for d := 0; d < len(p.hist); d++ {
		cum += p.hist[d]
		if cum >= need {
			return d + 1
		}
	}
	return -1
}
