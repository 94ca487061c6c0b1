// Package riscii models the RISC II instruction cache the paper
// presents as an implemented example of on-chip cache architecture
// (§2.3): a 512-byte, direct-mapped, 8-byte-block single-chip
// instruction cache with two architectural innovations:
//
//   - a remote program counter that guesses the next instruction
//     address so the cache can start its private-store access before
//     the processor presents the real address (the paper's chip
//     predicted 89.9% of next addresses and cut perceived access time
//     42.2%), and
//   - dynamic code expansion: selected instructions are stored in a
//     compacted half-word format and expanded on the way to the
//     processor, shrinking code ~20% and improving miss ratio ~27%.
//
// The cache proper reuses internal/cache (direct-mapped is Assoc == 1);
// this package adds the predictor and the compaction address mapping,
// and a harness that measures both against instruction traces.
package riscii

import (
	"fmt"
	"io"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/trace"
)

// ICacheConfig describes a RISC II-style instruction cache.  The chip's
// parameters are the defaults: 512 bytes, 8-byte blocks, direct mapped,
// 4-byte (one-instruction) transfers.
type ICacheConfig struct {
	Size      int
	BlockSize int
}

// Config converts to the simulator's configuration.  RISC II loaded
// whole blocks on a miss.
func (c ICacheConfig) Config() cache.Config {
	size := c.Size
	if size == 0 {
		size = 512
	}
	block := c.BlockSize
	if block == 0 {
		block = 8
	}
	return cache.Config{
		NetSize:      size,
		BlockSize:    block,
		SubBlockSize: block,
		Assoc:        1, // direct mapped
		WordSize:     4, // one 32-bit RISC instruction
		Replacement:  cache.LRU,
		Fetch:        cache.DemandSubBlock,
		Write:        cache.WriteIgnore, // instruction cache
	}
}

// RemotePC is the next-instruction-address predictor.  Like the chip,
// it has "limited instruction-decode ability and static jump-likely
// hints": for each static instruction it knows whether the instruction
// is likely to transfer control (a static hint) and remembers the last
// target it transferred to.  Prediction is sequential (pc + 4) unless
// the hint fires and a remembered target exists.
type RemotePC struct {
	instrSize addr.Addr
	// lastTarget remembers, per static branch, its most recent
	// destination; nil values mean "no transfer seen yet".
	lastTarget map[addr.Addr]addr.Addr

	predictions uint64
	correct     uint64
}

// NewRemotePC builds a predictor for fixed-size instructions of the
// given length in bytes.
func NewRemotePC(instrSize int) (*RemotePC, error) {
	if instrSize <= 0 || !addr.IsPow2(uint64(instrSize)) {
		return nil, fmt.Errorf("riscii: instruction size %d not a positive power of two", instrSize)
	}
	return &RemotePC{
		instrSize:  addr.Addr(instrSize),
		lastTarget: make(map[addr.Addr]addr.Addr),
	}, nil
}

// Predict returns the guessed successor of the instruction at pc.
func (r *RemotePC) Predict(pc addr.Addr) addr.Addr {
	if t, ok := r.lastTarget[pc]; ok {
		return t
	}
	return pc + r.instrSize
}

// Observe feeds the actual successor of pc, scoring the previous
// prediction and updating the static hint state.  It returns whether
// the prediction was correct.
func (r *RemotePC) Observe(pc, next addr.Addr) bool {
	predicted := r.Predict(pc)
	r.predictions++
	ok := predicted == next
	if ok {
		r.correct++
	}
	if next != pc+r.instrSize {
		// A control transfer: remember the target (the static
		// jump-likely hint for this instruction now fires).
		r.lastTarget[pc] = next
	} else if _, hinted := r.lastTarget[pc]; hinted && !ok {
		// The hinted branch fell through this time; a once-wrong hint
		// is retrained to the latest behaviour.
		delete(r.lastTarget, pc)
	}
	return ok
}

// Accuracy returns the fraction of correct predictions (the chip:
// 0.899).
func (r *RemotePC) Accuracy() float64 {
	if r.predictions == 0 {
		return 0
	}
	return float64(r.correct) / float64(r.predictions)
}

// AccessTimeReduction converts prediction accuracy into the perceived
// access-time saving: a correct prediction overlaps the cache's
// private-store access with the processor's address generation, hiding
// overlapFrac of the access time; a wrong prediction pays full price.
// With the chip's 89.9% accuracy and ~47% overlap this reproduces the
// reported 42.2% reduction.
func AccessTimeReduction(accuracy, overlapFrac float64) float64 {
	return accuracy * overlapFrac
}

// Compactor implements dynamic code expansion's address side: a
// deterministic fraction of static instructions are stored half-length,
// so the compacted code image is smaller and the same dynamic stream
// touches fewer cache bytes.  Map rewrites an original instruction
// address to its compacted address; the monotone mapping preserves
// program order and relative locality, exactly what the cache sees.
type Compactor struct {
	base      addr.Addr
	instrSize int
	// compactedOffset[i] is the compacted byte offset of the i-th
	// instruction slot.
	compactedOffset []addr.Addr
	staticSavings   float64
}

// NewCompactor builds the mapping for a code region of the given base
// and size holding fixed instrSize-byte instructions, of which roughly
// frac are compactable to half length.  Compactability is a
// deterministic hash of the slot index and seed (a static property of
// the program image, as on the chip).
func NewCompactor(base addr.Addr, size, instrSize int, frac float64, seed uint64) (*Compactor, error) {
	if size <= 0 || instrSize <= 0 || size%instrSize != 0 {
		return nil, fmt.Errorf("riscii: bad code region %d/%d", size, instrSize)
	}
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("riscii: compactable fraction %g out of [0,1]", frac)
	}
	slots := size / instrSize
	c := &Compactor{
		base:            base,
		instrSize:       instrSize,
		compactedOffset: make([]addr.Addr, slots+1),
	}
	var off addr.Addr
	compacted := 0
	for i := 0; i < slots; i++ {
		c.compactedOffset[i] = off
		if hashFrac(uint64(i), seed) < frac {
			off += addr.Addr(instrSize / 2)
			compacted++
		} else {
			off += addr.Addr(instrSize)
		}
	}
	c.compactedOffset[slots] = off
	c.staticSavings = 1 - float64(off)/float64(size)
	return c, nil
}

// hashFrac maps (i, seed) to a uniform-ish value in [0,1).
func hashFrac(i, seed uint64) float64 {
	x := i ^ seed*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// Map rewrites an original-image instruction address into the compacted
// image.  Addresses outside the region pass through unchanged.
func (c *Compactor) Map(a addr.Addr) addr.Addr {
	if a < c.base {
		return a
	}
	slot := int(a-c.base) / c.instrSize
	if slot >= len(c.compactedOffset)-1 {
		return a
	}
	within := (uint64(a-c.base) % uint64(c.instrSize)) / 2 // halves survive
	return c.base + c.compactedOffset[slot] + addr.Addr(within)
}

// StaticSavings returns the code-size reduction of the compacted image
// (the chip: ~20%).
func (c *Compactor) StaticSavings() float64 { return c.staticSavings }

// Result summarises one instruction-trace evaluation.
type Result struct {
	// MissRatio of the instruction cache on the (possibly compacted)
	// stream.
	MissRatio float64
	// Fetches is the number of instruction fetches presented.
	Fetches uint64
	// PredictionAccuracy is the remote PC's score (0 if not evaluated).
	PredictionAccuracy float64
}

// Evaluate drives an instruction stream through a RISC II cache,
// optionally remapped by a compactor and optionally scored by a remote
// PC.  Only IFetch references are considered; each is one instruction.
func Evaluate(cfg ICacheConfig, src trace.Source, comp *Compactor, rpc *RemotePC) (Result, error) {
	c, err := cache.New(cfg.Config())
	if err != nil {
		return Result{}, err
	}
	var prev addr.Addr
	havePrev := false
	var fetches uint64
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Result{}, err
		}
		if r.Kind != trace.IFetch {
			continue
		}
		a := addr.AlignDown(r.Addr, 4)
		if comp != nil {
			a = addr.AlignDown(comp.Map(a), 2)
		}
		fetches++
		c.Access(trace.Ref{Addr: a, Kind: trace.IFetch, Size: 4})
		if rpc != nil {
			if havePrev {
				rpc.Observe(prev, a)
			}
			prev, havePrev = a, true
		}
	}
	res := Result{MissRatio: c.Stats().MissRatio(), Fetches: fetches}
	if rpc != nil {
		res.PredictionAccuracy = rpc.Accuracy()
	}
	return res, nil
}
