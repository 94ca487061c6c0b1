// Package multipass simulates a whole family of cache configurations in
// a single pass over a trace.
//
// The idea is the set-refinement structure behind stack-distance
// simulation (Mattson et al. 1970): for a fixed net size, block size and
// associativity, every sub-block size indexes the same sets, matches the
// same tags and -- provided nothing feeds sub-block state back into the
// tag array -- makes the same replacement decisions on the same
// accesses.  One shared tag/replacement engine can therefore carry a
// "lane" per (sub-block size, fetch policy) pair, each lane owning only
// the per-frame valid/touched/dirty bitmaps and its own cache.Stats.
// Simulating the k sub-block sizes of one Table 7 family then costs one
// trace pass and one tag probe per access instead of k.
//
// The kernel is bit-exact against cache.Cache: every counter in
// cache.Stats, including the bus-transaction histogram, is accumulated
// or derived by the same rules.  internal/multipass/diff_test.go and
// FuzzMultiPassEquivalence check the equivalence through every entry
// point on their traces; the sweep harness additionally
// regression-tests the generated paper artifacts, and an exact digest
// of the Table 7 counters, byte for byte across engines.
//
// To keep the per-reference loop tight, counters that are tag-level
// facts -- identical in every lane by the set-refinement argument
// (accesses, warm-up accesses, write accesses, block misses, evictions,
// write-through words) -- are accumulated once per family and folded
// into each lane's cache.Stats by FlushUsage, which also derives Hits
// and Misses from the partition identities (Hits = Accesses - Misses,
// Misses = BlockMisses + SubBlockMisses).  Per-lane stats are therefore
// only partially populated until FlushUsage runs; every consumer of
// Family.Stats must flush first, exactly as the reference simulator
// requires for its residency counters.
//
// In both frame layouts below, all lanes' sub-block bits for one frame
// are packed side by side into bit planes -- lane li owns the field
// [laneOff, laneOff+subPerBlk) of its plane's word -- and a
// small table precomputed per block offset gives, in one load, the OR
// of every lane's referenced-sub-block bit, so classifying a reference
// in every lane is one mask test whatever the lane count.
//
// The default class -- LRU, at most four ways, one bit plane, every
// lane demand-fetch, write-allocate and write-through: every Table 7
// family and every sweepd request -- keeps its frames in one record per
// set (setRec): four tags, four valid words and the packed LRU order
// byte.  Unfilled ways hold a tag no block number matches, so the probe
// compares all four ways with no jump and no fill count, and the batch
// loop (recordPiece) resolves hit, sub-block miss, fill and victim
// choice with masks and one store per field.  Under demand fetch a
// valid bit is set only by the reference that touches it, so the valid
// word doubles as the touched word, and a lane's counted read sub-block
// misses need no per-reference bookkeeping: FlushUsage derives them
// from the residency count.
//
// Every other configuration (other fetch policies, copy-back, FIFO and
// Random, write-ignore, more than four ways or more than one plane)
// keeps the struct-of-arrays layout of internal/cache: dense per-frame
// tag, recency-tick, load-tick, valid, touched and dirty slices plus a
// per-set fill count and LRU order byte, with a pair of same-block
// memos (one per instruction/data stream, which interleave in split
// traces) in front of the tag scan.
//
// Eligibility is decided by cache.Config.MultiPassSafe: OBL prefetch and
// write-no-allocate feed sub-block validity back into tag-array
// dynamics, so such configurations must be simulated by the reference
// cache.Cache (the sweep harness falls back automatically).
package multipass

import (
	"fmt"
	"io"
	"math/bits"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/rng"
	"subcache/internal/trace"
)

// lane is one configuration's cold state: the fetch-policy parameters
// used on fills and retirements, its bit-plane placement, and the
// statistics.  The hot per-frame bitmaps live in the family's packed
// plane words.
type lane struct {
	cfg         cache.Config
	subShift    uint
	subPerBlk   uint
	subMask     uint64 // low subPerBlk bits set (the lane's local field)
	wordsPerSub int
	plane       int  // which plane word holds this lane's field
	laneOff     uint // bit offset of the field within the plane word
	stats       cache.Stats
}

// Family simulates a set of cache configurations that share tag-array
// dynamics (equal FamilyKey, all MultiPassSafe) in one trace pass.  Not
// safe for concurrent use.
type Family struct {
	base    cache.Config // cfgs[0]; SubBlockSize/Fetch vary per lane
	lanes   []lane
	nLanes  int
	nPlanes int

	// sets holds the frames of a default-class family (see the package
	// comment), which allocates none of the flat slices below; nil
	// otherwise.
	sets []setRec

	// Shared tag array, struct-of-arrays, indexed fi = set*assoc+way.
	tags     []uint64
	lastUse  []uint64 // recency ticks; consulted only when assoc > 4
	loadedAt []uint64
	setFill  []int32 // valid ways per set: prefix [0, setFill) holds blocks

	// setOrder[setIdx] packs the set's exact LRU order into one byte:
	// four 2-bit way ids, most recently used first, so the victim of a
	// full set is the low field and recording an access is one load
	// from mruTab instead of a tick store.  Exact for any assoc <= 4
	// (see mruTab); wider LRU sets fall back to lastUse ticks.
	setOrder []uint8

	// Packed lane bitmaps: plane word pj of frame fi is at fi*nPlanes+pj
	// and carries the valid (touched, dirty) fields of every lane
	// assigned to plane pj, so a frame's lane state is three words per
	// plane.
	valid   []uint64
	touched []uint64
	dirty   []uint64

	// refBits[(off>>wordShift)*nPlanes+pj] is the OR, over the lanes of
	// plane pj, of the bit for the sub-block containing block offset
	// off: the "which sub-block does this reference touch" shift work
	// for every lane collapses into one table load.  Indexing by word
	// offset is exact for any byte offset because sub-blocks are at
	// least a word.
	refBits []uint64

	// laneOfBit[pj*64+b] is the lane owning bit b of plane pj, so a
	// sub-miss handler iterates exactly the missing lanes by peeling
	// bits instead of filtering all lanes.
	laneOfBit []uint8

	// Block-miss fill tables.  A block miss always fills from a zeroed
	// valid word, which makes every fetch policy's outcome a pure
	// function of the block offset: one contiguous transaction, no
	// redundant loads.  missBits[(off>>wordShift)*nPlanes+pj] is the
	// plane's valid word after all its lanes filled; missWords[li*words
	// + off>>wordShift] is lane li's words-transferred count, which is
	// simultaneously its TxHist index and its WordsFetched delta; and
	// missLoaded likewise its SubBlockFills delta.
	missBits   []uint64
	missWords  []int32
	missLoaded []int32

	// memoI/memoD are per-stream same-block memos: the frame the last
	// instruction-fetch (data) reference touched, or -1.  Split traces
	// interleave the two streams, so a single memo would thrash.  No
	// invalidation is needed: a frame's tag changes only at allocation,
	// which re-points the current stream's memo, and a stale memo fails
	// its tag compare and falls back to the probe.
	memoI int32
	memoD int32

	// Deferred per-lane counters.  The miss paths of the batch loops
	// record events in these dense histograms -- one increment per event
	// -- and FlushUsage folds them into each lane's cache.Stats, where
	// the eager paths would have done three to five counter updates per
	// lane per event.  All are order-independent totals, so the fold is
	// exact.
	//
	// bitMiss[c][b] counts a default-class family's class-c sub-block
	// misses (missWrite, missWarm) whose referenced bit is bit b of
	// plane 0: with every lane demand-fetch in one plane the bit
	// identifies the lane, the loaded sub-block and the one-sub-block
	// transaction all at once.  blkMissHist[wo] counts counted block
	// misses at word offset wo; the missWords/missLoaded tables turn
	// that into every lane's histogram and fill deltas at flush time.
	bitMiss     [2][64]uint64
	blkMissHist []uint64

	// Retired-frame touched bits (valid bits in the default class)
	// accumulate in per-plane vertical (bit-sliced) counters:
	// vcTouch[pj*vcDepth+j] holds bit j of a 64-wide column of binary
	// counters, so retiring a frame is a short ripple-carry add of its
	// touched word instead of a per-lane popcount.  A carry out of the
	// top level spills 1<<vcDepth into vcSpill[pj*64+b] per set bit.
	// FlushUsage reassembles per-bit totals and attributes them to lanes
	// via laneOfBit.
	vcTouch []uint64
	vcSpill []uint64

	assoc     int
	tick      uint64
	filled    int
	warmAt    int  // default class: filled count that ends the warm-up (NumFrames, or 0 without WarmStart)
	warm      bool // flat layout: counting enabled, warm-start satisfied or disabled
	flushed   bool // FlushUsage has folded the shared counters
	rand      *rng.Stream
	wordShift uint
	blkWords  int // BlockSize/WordSize: row length of the miss tables

	blockShift uint
	setMask    addr.Addr
	offMask    uint64 // BlockSize-1: block-offset extraction
	copyBack   bool

	// Tag-level event counts, identical in every lane and therefore
	// accumulated once per family instead of once per lane per access.
	// FlushUsage folds them into each lane's cache.Stats.
	//
	// kindCount is the counted-phase access classification, indexed by
	// trace.Kind (IFetch/Read/Write): one unconditional increment
	// replaces the hit path's classification branches, and FlushUsage
	// derives ifetches, reads, accesses and the warm-phase write count
	// from it.
	kindCount         [4]uint64
	warmupAccesses    uint64
	writeAccesses     uint64 // warm-up-phase writes; kindCount[Write] holds the rest
	blockMisses       uint64 // counted block (tag) misses
	warmupBlockMisses uint64
	writeBlockMisses  uint64
	evictions         uint64
	wtWords           uint64 // write-through words, one per write (write-through mode)
}

// New builds a family kernel for the given configurations.  All
// configurations must validate, be MultiPassSafe, and share a FamilyKey
// (i.e. differ only in SubBlockSize and Fetch).
func New(cfgs []cache.Config) (*Family, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("multipass: no configurations")
	}
	key := cfgs[0].FamilyKey()
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if !cfg.MultiPassSafe() {
			return nil, fmt.Errorf("multipass: %v: tag dynamics depend on sub-block state (prefetch or write-no-allocate)", cfg)
		}
		if cfg.FamilyKey() != key {
			return nil, fmt.Errorf("multipass: %v and %v are not in the same family", cfgs[0], cfg)
		}
	}
	base := cfgs[0]
	numFrames := base.NumFrames()
	k := len(cfgs)
	f := &Family{
		base:       base,
		nLanes:     k,
		memoI:      -1,
		memoD:      -1,
		assoc:      base.Assoc,
		warm:       !base.WarmStart,
		wordShift:  addr.Log2(uint64(base.WordSize)),
		blockShift: addr.Log2(uint64(base.BlockSize)),
		setMask:    addr.Addr(base.NumSets() - 1),
		offMask:    uint64(base.BlockSize - 1),
		copyBack:   base.CopyBack,
	}
	if base.WarmStart {
		f.warmAt = numFrames
	}
	if base.Replacement == cache.Random {
		f.rand = rng.New(base.RandomSeed)
	}
	// Assign each lane a field in a bit plane, first-fit in input order:
	// a new plane starts whenever the current one cannot hold the next
	// lane's subPerBlk bits.
	f.lanes = make([]lane, k)
	used := uint(64) // force plane 0 to open on the first lane
	plane := -1
	allDemand := true
	for i, cfg := range cfgs {
		subPerBlk := uint(cfg.SubBlocksPerBlock())
		if used+subPerBlk > 64 {
			plane++
			used = 0
		}
		f.lanes[i] = lane{
			cfg:         cfg,
			subShift:    addr.Log2(uint64(cfg.SubBlockSize)),
			subPerBlk:   subPerBlk,
			subMask:     ^uint64(0) >> (64 - subPerBlk),
			wordsPerSub: cfg.WordsPerSubBlock(),
			plane:       plane,
			laneOff:     used,
		}
		used += subPerBlk
		// Same pre-sizing as cache.New: fills record with one increment.
		f.lanes[i].stats.TxHist = make([]uint64, cfg.BlockSize/cfg.WordSize+1)
		if cfg.Fetch != cache.DemandSubBlock {
			allDemand = false
		}
	}
	f.nPlanes = plane + 1
	if f.nPlanes == 1 && allDemand && base.Replacement == cache.LRU && base.Assoc <= 4 &&
		base.Write == cache.WriteAllocate && !base.CopyBack {
		// Every way starts unfilled, and the order byte lists the ways
		// highest first, so its LRU field is the lowest unfilled way
		// until the set is full: unfilled ways are never referenced and
		// keep their order behind every filled one.
		var order uint8
		for i := 0; i < base.Assoc; i++ {
			order |= uint8(base.Assoc-1-i) << (6 - 2*i)
		}
		f.sets = make([]setRec, base.NumSets())
		for i := range f.sets {
			f.sets[i] = setRec{tags: [4]uint64{noTag, noTag, noTag, noTag}, order: order}
		}
	} else {
		f.tags = make([]uint64, numFrames)
		f.lastUse = make([]uint64, numFrames)
		f.loadedAt = make([]uint64, numFrames)
		f.setFill = make([]int32, base.NumSets())
		f.setOrder = make([]uint8, base.NumSets())
		f.valid = make([]uint64, numFrames*f.nPlanes)
		f.touched = make([]uint64, numFrames*f.nPlanes)
		f.dirty = make([]uint64, numFrames*f.nPlanes)
	}
	words := base.BlockSize / base.WordSize
	f.blkWords = words
	f.refBits = make([]uint64, words*f.nPlanes)
	f.laneOfBit = make([]uint8, f.nPlanes*64)
	f.missBits = make([]uint64, words*f.nPlanes)
	f.missWords = make([]int32, len(f.lanes)*words)
	f.missLoaded = make([]int32, len(f.lanes)*words)
	for w := 0; w < words; w++ {
		off := uint(w) << f.wordShift
		for i := range f.lanes {
			ln := &f.lanes[i]
			sub := off >> ln.subShift
			f.refBits[w*f.nPlanes+ln.plane] |= 1 << (ln.laneOff + sub)
			// The zero-valid fill: one transaction spanning the fetch
			// policy's reach from sub.
			var mask uint64
			switch ln.cfg.Fetch {
			case cache.DemandSubBlock:
				mask = 1 << sub
			case cache.LoadForward, cache.LoadForwardOptimized:
				mask = ln.subMask &^ (1<<sub - 1)
			case cache.WholeBlock:
				mask = ln.subMask
			}
			loaded := bits.OnesCount64(mask)
			f.missBits[w*f.nPlanes+ln.plane] |= mask << ln.laneOff
			f.missLoaded[i*words+w] = int32(loaded)
			f.missWords[i*words+w] = int32(loaded * ln.wordsPerSub)
		}
	}
	for i := range f.lanes {
		ln := &f.lanes[i]
		for b := uint(0); b < ln.subPerBlk; b++ {
			f.laneOfBit[ln.plane*64+int(ln.laneOff+b)] = uint8(i)
		}
	}
	f.blkMissHist = make([]uint64, words)
	f.vcTouch = make([]uint64, f.nPlanes*vcDepth)
	f.vcSpill = make([]uint64, f.nPlanes*64)
	return f, nil
}

// setRec is one set of a default-class family: the ways' block numbers
// (noTag while unfilled), their valid words (every lane's field of the
// one bit plane, which under demand fetch is also the touched word) and
// the packed LRU order byte (see mruTab).  A filled way's valid word is
// never zero, since every lane holds the sub-block that filled it.
type setRec struct {
	tags  [4]uint64
	valid [4]uint64
	order uint8
}

// noTag marks an unfilled way.  Packed block numbers are below 2^62, so
// no probe matches it.
const noTag = ^uint64(0)

// Recorded sub-block miss classes, the rows of Family.bitMiss.
const (
	missWrite = iota // writes, counted or not
	missWarm         // reads and instruction fetches in the warm-up
)

// vcDepth is the height of the vertical touched-bit counters: each bit
// column counts up to 1<<vcDepth retirements before spilling into
// vcSpill, so the spill path is effectively never taken on real traces.
const vcDepth = 24

// mruTab[o<<2|w] is the packed recency byte o after an access to way
// w: the way moves to the front of the four-field sequence.  The
// update drops every stale occurrence of the way and pads by
// repeating the tail, so for sets narrower than four ways the low
// field is still exactly the least recently used of the ways present;
// a fresh way not yet in the byte pushes everything down.  The table
// is 1 KiB and stays L1-resident.
var mruTab = buildMRUTab()

func buildMRUTab() (t [1024]uint8) {
	for o := 0; o < 256; o++ {
		for w := 0; w < 4; w++ {
			seq := []int{w}
			for s := 6; s >= 0; s -= 2 {
				if x := o >> s & 3; x != w {
					seq = append(seq, x)
				}
			}
			for len(seq) < 4 {
				seq = append(seq, seq[len(seq)-1])
			}
			t[o<<2|w] = uint8(seq[0]<<6 | seq[1]<<4 | seq[2]<<2 | seq[3])
		}
	}
	return t
}

// Group partitions configurations into single-pass families.  Each
// returned family is a list of indexes into cfgs sharing a FamilyKey,
// all MultiPassSafe, in first-appearance order; rest holds the indexes
// of configurations that need the reference simulator.  Group does not
// validate geometry -- New reports those errors.
func Group(cfgs []cache.Config) (families [][]int, rest []int) {
	byKey := make(map[cache.Config]int)
	for i, cfg := range cfgs {
		if !cfg.MultiPassSafe() {
			rest = append(rest, i)
			continue
		}
		key := cfg.FamilyKey()
		fi, ok := byKey[key]
		if !ok {
			fi = len(families)
			byKey[key] = fi
			families = append(families, nil)
		}
		families[fi] = append(families[fi], i)
	}
	return families, rest
}

// Lanes returns the number of configurations simulated by the family.
func (f *Family) Lanes() int { return len(f.lanes) }

// Config returns the i'th lane's configuration, in New's input order.
func (f *Family) Config(i int) cache.Config { return f.lanes[i].cfg }

// Stats returns the i'th lane's accumulated statistics.  The pointer
// stays valid for the lifetime of the family, but the tag-level
// counters (accesses, block misses, evictions, and the hit/miss
// totals derived from them) are only folded in by FlushUsage: call
// FlushUsage once at end of trace before reading any counter.
func (f *Family) Stats(i int) *cache.Stats { return &f.lanes[i].stats }

// Access presents one word access to every lane of the family.  A
// default-class family runs its batch loop on the one packed word, so
// the reference's word index must be below 2^62, as for AccessBatch.
func (f *Family) Access(r trace.Ref) {
	if f.sets != nil {
		v := [1]uint64{trace.PackRef(r, f.wordShift)}
		f.accessRecords(v[:])
		return
	}
	isWrite := r.Kind == trace.Write
	count := true
	if isWrite {
		if f.base.Write == cache.WriteIgnore {
			return
		}
		// WriteAllocate (the only other MultiPassSafe policy): writes
		// allocate and touch recency like reads but are never counted.
		count = false
	}

	f.tick++
	blockAddr := r.Addr >> f.blockShift
	off := uint(uint64(r.Addr) & f.offMask)
	counted := count && f.warm

	// Access classification is a tag-level fact: record it once for
	// the family instead of once per lane, and in the warm (common)
	// phase as one unconditional kind-indexed increment.
	if f.warm {
		f.kindCount[r.Kind&3]++
	} else if count {
		f.warmupAccesses++
	} else {
		f.writeAccesses++
	}

	// Shared tag probe: the stream's same-block memo first (one
	// compare, the dominant case on block-local traces), then the
	// contiguous scan over the set's filled tags.
	memo := &f.memoD
	if r.Kind == trace.IFetch {
		memo = &f.memoI
	}
	fi := -1
	if m := *memo; m >= 0 && f.tags[m] == uint64(blockAddr) {
		fi = int(m)
	} else {
		setIdx := int(blockAddr & f.setMask)
		sbase := setIdx * f.assoc
		n := sbase + int(f.setFill[setIdx])
		for w := sbase; w < n; w++ {
			if f.tags[w] == uint64(blockAddr) {
				fi = w
				*memo = int32(w)
				break
			}
		}
	}

	if fi >= 0 {
		f.recordUse(int(blockAddr&f.setMask), fi)
		// Tag hit.  One plane word per ~64 lane bits classifies every
		// lane at once: lanes whose referenced-sub-block bit is already
		// valid need nothing but the touched OR; only lanes with the
		// bit missing take the per-lane fill path.  Table 7 families
		// always fit one plane, so that case runs straight-line.
		if f.nPlanes == 1 {
			need := f.refBits[off>>f.wordShift]
			if missing := need &^ f.valid[fi]; missing != 0 {
				f.subMiss(0, fi, off, missing, counted, count)
			}
			f.touched[fi] |= need
			if isWrite {
				if f.copyBack {
					f.dirty[fi] |= need
				} else {
					// Every lane moves the same one word to memory;
					// folded into WriteThroughWords by FlushUsage.
					f.wtWords++
				}
			}
			return
		}
		pb := fi * f.nPlanes
		ob := int(off>>f.wordShift) * f.nPlanes
		for pj := 0; pj < f.nPlanes; pj++ {
			need := f.refBits[ob+pj]
			if missing := need &^ f.valid[pb+pj]; missing != 0 {
				f.subMiss(pj, pb+pj, off, missing, counted, count)
			}
			f.touched[pb+pj] |= need
		}
		if isWrite {
			if f.copyBack {
				for pj := 0; pj < f.nPlanes; pj++ {
					f.dirty[pb+pj] |= f.refBits[ob+pj]
				}
			} else {
				f.wtWords++
			}
		}
		return
	}

	f.allocate(blockAddr, off, counted, count, isWrite, memo)
}

// recordUse marks frame fi of set setIdx most recently used: the
// packed order byte for narrow sets, the tick slice for wide ones.
func (f *Family) recordUse(setIdx, fi int) {
	w := uint(fi-setIdx*f.assoc) & 3
	if o := f.setOrder[setIdx]; uint(o>>6) != w {
		f.setOrder[setIdx] = mruTab[uint(o)<<2|w]
	}
	f.lastUse[fi] = f.tick
}

// allocate handles a block (tag) miss: classification, victim choice,
// retirement, tag assignment and the initial fill of every lane.  The
// caller has already advanced the tick and classified the access.
func (f *Family) allocate(blockAddr addr.Addr, off uint, counted, count, isWrite bool, memo *int32) {
	// One shared allocation, every lane misses -- a tag-level fact,
	// recorded once.
	if counted {
		f.blockMisses++
	} else if count {
		f.warmupBlockMisses++
	} else {
		f.writeBlockMisses++
	}
	setIdx := int(blockAddr & f.setMask)
	fi, fresh := f.victim(setIdx)
	if fresh {
		f.setFill[setIdx]++
		f.filled++
		if f.filled == len(f.tags) {
			f.warm = true
		}
	} else {
		f.evictions++
		f.retire(fi)
	}
	f.tags[fi] = uint64(blockAddr)
	f.recordUse(setIdx, fi)
	f.loadedAt[fi] = f.tick
	*memo = int32(fi)
	// Every lane fills from a zeroed valid word, so the whole frame
	// initialisation is three table loads per plane, and the per-lane
	// work is only the precomputed counter deltas (skipped entirely for
	// uncounted references, exactly as fill would have skipped them --
	// a zero-valid fill has no redundant loads and one transaction).
	pb := fi * f.nPlanes
	wo := int(off >> f.wordShift)
	ob := wo * f.nPlanes
	var dirtyBits uint64 = 0
	if isWrite {
		if f.copyBack {
			dirtyBits = ^uint64(0)
		} else {
			f.wtWords++
		}
	}
	for pj := 0; pj < f.nPlanes; pj++ {
		f.valid[pb+pj] = f.missBits[ob+pj]
		f.touched[pb+pj] = f.refBits[ob+pj]
		f.dirty[pb+pj] = f.refBits[ob+pj] & dirtyBits
	}
	if counted {
		// The per-lane transaction and fill deltas are pure functions of
		// the word offset (see the miss tables), so one histogram
		// increment here replaces the per-lane counter loop; FlushUsage
		// expands it through missWords/missLoaded.
		f.blkMissHist[wo]++
	}
}

// subMiss resolves the lanes of plane pj whose referenced sub-block is
// missing: each set bit of missing is exactly one lane's referenced
// bit, so peeling bits visits the missing lanes and no others.  wi is
// the frame's plane-word index.
func (f *Family) subMiss(pj, wi int, off uint, missing uint64, counted, count bool) {
	for m := missing; m != 0; m &= m - 1 {
		ln := &f.lanes[f.laneOfBit[pj*64+bits.TrailingZeros64(m)]]
		st := &ln.stats
		if counted {
			st.SubBlockMisses++
		} else if count {
			st.WarmupMisses++
		} else {
			st.WriteMisses++
		}
		f.fill(ln, wi, off>>ln.subShift, counted)
	}
}

// AccessBatch presents a chunk of word accesses to every lane, the
// batched equivalent of calling Access per reference.  It packs the
// chunk (trace.PackRefs) through a small stack buffer, batchPackRefs
// references at a time, and runs the packed batch loop on each piece,
// so a family owns no chunk-sized scratch.
//
// A default-class family runs accessRecords, warm-up included.  Any
// other single-plane family with LRU sets of at most four ways, or with
// FIFO or Random replacement, runs the general loop, which inlines the
// warm-phase protocol -- reads and writes, memo or probe, hit and
// sub-miss -- with the per-access state (tick, memos, kind counts,
// slice headers, geometry) hoisted into locals.  Warm-up-phase
// references, multi-plane families and LRU sets wider than four ways
// decode the packed word and drop to Access itself, so the observable
// state transitions are identical to calling Access per reference.
func (f *Family) AccessBatch(refs []trace.Ref) {
	var buf [batchPackRefs]uint64
	for len(refs) > 0 {
		n := min(len(refs), len(buf))
		trace.PackRefs(buf[:n], refs[:n], f.wordShift)
		f.accessPacked(buf[:n])
		refs = refs[n:]
	}
}

// batchPackRefs is AccessBatch's packing granularity: 8 KiB of stack,
// small enough to stay in L1 beside the family's hot state, large
// enough that the batch loop's per-call set-up is a sliver of each
// piece.
const batchPackRefs = 1024

// AccessBatchPacked is AccessBatch for a caller that already holds the
// chunk in trace.PackRefs form at this family's word granularity
// (packed[i] = uint64(refs[i].Addr)>>log2(WordSize)<<2 |
// uint64(refs[i].Kind)).  Only packed is read; refs may be nil.  The
// sweep executor packs each broadcast chunk once and hands the same
// words to every family and stack engine of the workload.
func (f *Family) AccessBatchPacked(refs []trace.Ref, packed []uint64) {
	f.accessPacked(packed)
}

func (f *Family) accessPacked(packed []uint64) {
	if f.sets != nil {
		f.accessRecords(packed)
		return
	}
	if f.nPlanes != 1 || (f.base.Replacement == cache.LRU && f.assoc > 4) {
		// Multi-plane families and LRU sets wider than the packed order
		// byte run the per-reference protocol.
		for _, v := range packed {
			f.Access(trace.UnpackRef(v, f.wordShift))
		}
		return
	}
	// Warm-up-phase references carry fill accounting the fast loop
	// omits, and warm never reverts once set, so they peel off the front
	// through Access and the main loop runs branch-free on the flag.
	for len(packed) > 0 && !f.warm {
		f.Access(trace.UnpackRef(packed[0], f.wordShift))
		packed = packed[1:]
	}
	tags, valid, touched, dirty := f.tags, f.valid, f.touched, f.dirty
	setFill, setOrder, refBits := f.setFill, f.setOrder, f.refBits
	blkMissHist, missBits, wordShift := f.blkMissHist, f.missBits, f.wordShift
	// Packed-form geometry: the block address is one shift of the
	// packed word, the block word offset one shift and mask.
	baShift := 2 + f.blockShift - wordShift
	woMask := uint64(f.blkWords - 1)
	setMask, assoc := uint64(f.setMask), f.assoc
	copyBack := f.copyBack
	wIgnore := f.base.Write == cache.WriteIgnore
	// In the warm phase the fill/warm bookkeeping is settled and LRU
	// needs no loadedAt, so an LRU family's whole miss path can run
	// inline; FIFO/Random fall back to allocate.
	fastMiss := f.base.Replacement == cache.LRU
	tick := f.tick
	// Stream memos, kind counts and the tag-level event totals live in
	// locals, folded back once at batch end.  The memos are indexed by
	// stream: 0 for instruction fetches, 1 for data (reads and writes
	// share the data stream, like memoD).
	memos := [2]int32{f.memoI, f.memoD}
	var kc [4]uint64
	var bm, wbm, evict, allocW uint64
	for i := range packed {
		v := packed[i]
		k := v & 3
		isWrite := k == uint64(trace.Write)
		if isWrite && wIgnore {
			continue
		}
		tick++
		ba := v >> baShift
		wo := v >> 2 & woMask
		// IFetch(0)->0, Read(1)/Write(2)->1: the stream index,
		// branch free; the kind histogram needs no branch at all.
		ki := (k + 1) >> 1 & 1
		kc[k]++
		setIdx := int(ba & setMask)
		sbase := setIdx * assoc
		var fi int
		if m := memos[ki]; m >= 0 && tags[m] == ba {
			fi = int(m)
		} else {
			nf := int(setFill[setIdx])
			fi = -1
			for w := 0; w < nf; w++ {
				if tags[sbase+w] == ba {
					fi = sbase + w
				}
			}
			if fi < 0 {
				if !fastMiss {
					f.tick = tick
					if isWrite {
						// allocate counts the write-through word
						// itself; keep the epilogue's batch-total
						// fold from counting it again.
						allocW++
					}
					f.allocate(addr.Addr(ba), uint(wo)<<wordShift, !isWrite, !isWrite, isWrite, &memos[ki])
					continue
				}
				// Inline block miss: an unused way if one remains,
				// else the LRU victim from the set's order byte,
				// whose touched bits ripple into the vertical
				// counters.
				if nf < assoc {
					fi = sbase + nf
					setFill[setIdx] = int32(nf + 1)
				} else {
					fi = sbase + int(setOrder[setIdx]&3)
					evict++
					f.ripple(0, touched[fi])
					if copyBack {
						if d := dirty[fi]; d != 0 {
							f.retireDirty(fi, d)
						}
					}
				}
				tags[fi] = ba
				o := setOrder[setIdx]
				setOrder[setIdx] = mruTab[uint(o)<<2|uint(fi-sbase)&3]
				memos[ki] = int32(fi)
				need := refBits[wo]
				valid[fi] = missBits[wo]
				touched[fi] = need
				if isWrite && copyBack {
					dirty[fi] = need
				}
				w1 := v >> 1 & 1
				wbm += w1
				bm += 1 - w1
				blkMissHist[wo] += 1 - w1
				continue
			}
			memos[ki] = int32(fi)
		}
		need := refBits[wo]
		if missing := need &^ valid[fi]; missing != 0 {
			f.subMiss(0, fi, uint(wo)<<wordShift, missing, !isWrite, !isWrite)
		}
		touched[fi] |= need
		if isWrite && copyBack {
			dirty[fi] |= need
		}
		// Only a non-MRU way needs the order store: on block-local runs
		// the way is already MRU, and skipping keeps the order byte's
		// load-table-store chain off the loop's critical path.
		w := uint(fi-sbase) & 3
		if o := setOrder[setIdx]; uint(o>>6) != w {
			setOrder[setIdx] = mruTab[uint(o)<<2|w]
		}
	}
	f.tick = tick
	f.memoI, f.memoD = memos[0], memos[1]
	f.kindCount[trace.IFetch] += kc[trace.IFetch]
	f.kindCount[trace.Read] += kc[trace.Read]
	f.kindCount[trace.Write] += kc[trace.Write]
	if !copyBack && !wIgnore {
		// Write-through moves exactly one word per write, hit or miss:
		// the total is the write count, minus the writes the allocate
		// fallback already counted.
		f.wtWords += kc[trace.Write] - allocW
	}
	f.blockMisses += bm
	f.writeBlockMisses += wbm
	f.evictions += evict
}

// accessRecords is the default class's batch loop: the whole protocol
// of Access, warm-up included, on the set records, with no memo, in
// pieces of at most recordRefs references.
func (f *Family) accessRecords(packed []uint64) {
	for len(packed) > 0 {
		n := min(len(packed), recordRefs)
		f.recordPiece(packed[:n])
		packed = packed[n:]
	}
}

// recordRefs is recordPiece's longest piece: its victim buffer is 2 KiB
// of stack.
const recordRefs = 256

// recordPiece runs the default-class loop over at most recordRefs
// references.  The probe compares the block number with all four ways'
// tags into 0/1 flags without a jump (at most one flag is set: a block
// is resident once), and the frame they select -- the hit way, else the
// order byte's LRU field -- takes its tag, valid word and order byte as
// unconditional stores, each of which rewrites the value it replaces
// where the reference changes nothing.  The loop's one branch is the
// rare call that records a write's or a warm-up read's sub-block
// misses.  Retiring the victims and counting the reference kinds run
// after it, from the victims it buffers and from the packed words, and
// the counted read sub-block misses are never recorded: FlushUsage
// derives them.
func (f *Family) recordPiece(packed []uint64) {
	// New sizes both to a power of two; the emptiness test, never true,
	// lets the compiler prove the masked indexes below in bounds.
	sets, refBits := f.sets, f.refBits
	if len(sets) == 0 || len(refBits) == 0 {
		return
	}
	setMask, woMask := uint64(len(sets)-1), uint64(len(refBits)-1)
	baShift := (2 + f.blockShift - f.wordShift) & 63
	// rem is filled - warmAt: negative, top bit set, while the warm-up
	// lasts.
	rem := uint64(f.filled - f.warmAt)
	rem0 := rem
	// evicted[:nm] holds the victim's valid word of every block miss,
	// zero for an unfilled way; nU counts the references of the
	// warm-up, which are a prefix of the piece; misses packs the counted
	// read and the write block misses in two 32-bit fields.
	var evicted [recordRefs]uint64
	var nm, nU, misses uint64
	for _, v := range packed {
		w := v >> 1 & 1 // 1 on a write
		uw := rem >> 63 // 1 in the warm-up
		ba := v >> baShift
		need := refBits[v>>2&woMask]
		s := &sets[ba&setMask]
		h0 := flag(s.tags[0] == ba)
		h1 := flag(s.tags[1] == ba)
		h2 := flag(s.tags[2] == ba)
		h3 := flag(s.tags[3] == ba)
		miss := (h0 | h1 | h2 | h3) ^ 1
		hitMask := miss - 1 // all ones on a tag hit
		o := uint64(s.order)
		// The hit way, else the order byte's LRU field, which is the
		// lowest unfilled way while one remains (see New).
		way := (h1 | h3 | (h2|h3)<<1 | o&-miss) & 3
		old := s.valid[way]
		s.tags[way] = ba
		// Demand fetch loads exactly the referenced sub-block of every
		// lane: a tag hit ORs the bits in, a fill starts from them.
		s.valid[way] = old&hitMask | need
		s.order = mruTab[(o<<2|way)&1023]
		evicted[nm&(recordRefs-1)] = old
		nm += miss
		rem += miss & flag(old == 0)
		nU += uw
		misses += ((w | uw) ^ 1 | w<<32) & -miss
		// The lanes whose referenced bit was missing on a tag hit take a
		// sub-block miss; record the write and warm-up ones.
		if rec := need &^ old & hitMask & -(w | uw); rec != 0 {
			f.recordMisses(rec, w)
		}
	}
	// A filled frame's valid word is never zero, so the nonzero victims
	// are the evictions; their valid bits -- their touched bits --
	// ripple into the vertical counters.
	evictions := uint64(0)
	for _, carry := range evicted[:nm] {
		if carry != 0 {
			evictions++
			f.ripple(0, carry)
		}
	}
	// Reference kinds, from the packed words: the first nU are the
	// warm-up's.
	var wU, nW, nR uint64
	for _, v := range packed[:nU] {
		wU += v >> 1 & 1
	}
	for _, v := range packed[nU:] {
		nW += v >> 1 & 1
		nR += v & 1
	}
	mC, mW := misses&(1<<32-1), misses>>32
	f.filled += int(rem - rem0)
	f.kindCount[trace.IFetch] += uint64(len(packed)) - nU - nW - nR
	f.kindCount[trace.Read] += nR
	f.kindCount[trace.Write] += wU + nW
	f.warmupAccesses += nU - wU
	f.wtWords += wU + nW
	f.blockMisses += mC
	f.blkMissHist[0] += mC // every word offset fills the same under demand fetch
	f.writeBlockMisses += mW
	f.warmupBlockMisses += nm - mC - mW
	f.evictions += evictions
}

// flag is 1 if b holds and 0 otherwise; on amd64 it compiles to a
// SETcc, not a jump.
func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// recordMisses counts the sub-block misses in rec, a write's (w == 1)
// or a warm-up read's, bit by bit.
func (f *Family) recordMisses(rec, w uint64) {
	row := &f.bitMiss[missWarm-w]
	for ; rec != 0; rec &= rec - 1 {
		row[bits.TrailingZeros64(rec)]++
	}
}

// victim picks the frame to replace in the set, mirroring
// cache.Cache.victim: an unused way first (ways fill in order, so the
// unused ways are the suffix past setFill), else the replacement scan
// over the set's contiguous tick slices.
func (f *Family) victim(setIdx int) (fi int, fresh bool) {
	base := setIdx * f.assoc
	if n := int(f.setFill[setIdx]); n < f.assoc {
		return base + n, true
	}
	switch f.base.Replacement {
	case cache.LRU:
		if f.assoc <= 4 {
			return base + int(f.setOrder[setIdx]&3), false
		}
		best := base
		for i := base + 1; i < base+f.assoc; i++ {
			if f.lastUse[i] < f.lastUse[best] {
				best = i
			}
		}
		return best, false
	case cache.FIFO:
		best := base
		for i := base + 1; i < base+f.assoc; i++ {
			if f.loadedAt[i] < f.loadedAt[best] {
				best = i
			}
		}
		return best, false
	case cache.Random:
		return base + f.rand.Intn(f.assoc), false
	}
	panic("multipass: unreachable replacement policy")
}

// fill loads sub-blocks into the lane's field of the plane word at wi
// according to the lane's fetch policy, mirroring cache.Cache.fill
// exactly (including the transaction histogram).  The mask updates are
// branch-free: one OR of a precomputed span mask shifted to the lane's
// field, with redundant transfers counted by popcount.
func (f *Family) fill(ln *lane, wi int, subIdx uint, counted bool) {
	lv := (f.valid[wi] >> ln.laneOff) & ln.subMask // the lane's local valid field
	var loaded, redundant int
	switch ln.cfg.Fetch {
	case cache.DemandSubBlock:
		f.valid[wi] |= 1 << (ln.laneOff + subIdx)
		loaded = 1

	case cache.LoadForward:
		mask := ln.subMask &^ (1<<subIdx - 1)
		redundant = bits.OnesCount64(lv & mask)
		loaded = int(ln.subPerBlk - subIdx)
		f.valid[wi] |= mask << ln.laneOff

	case cache.LoadForwardOptimized:
		// Each contiguous group of missing sub-blocks is one
		// transaction, enumerated low to high by trailing-zero
		// arithmetic.
		mask := ln.subMask &^ (1<<subIdx - 1)
		missing := mask &^ lv
		loaded = bits.OnesCount64(missing)
		f.valid[wi] |= mask << ln.laneOff
		for missing != 0 {
			start := bits.TrailingZeros64(missing)
			run := bits.TrailingZeros64(^(missing >> uint(start)))
			ln.recordTransaction(run, counted)
			missing >>= uint(start + run)
		}
		if counted {
			ln.stats.SubBlockFills += uint64(loaded)
			ln.stats.WordsFetched += uint64(loaded * ln.wordsPerSub)
		}
		return

	case cache.WholeBlock:
		redundant = bits.OnesCount64(lv)
		loaded = int(ln.subPerBlk)
		f.valid[wi] |= ln.subMask << ln.laneOff
	}
	ln.recordTransaction(loaded, counted)
	if counted {
		ln.stats.SubBlockFills += uint64(loaded)
		ln.stats.RedundantLoads += uint64(redundant)
		ln.stats.WordsFetched += uint64(loaded * ln.wordsPerSub)
	}
}

// recordTransaction logs one contiguous bus transfer of n sub-blocks.
// The histogram is pre-sized to the block's word count, so this is a
// single allocation-free increment.
func (ln *lane) recordTransaction(n int, counted bool) {
	if !counted || n == 0 {
		return
	}
	ln.stats.TxHist[n*ln.wordsPerSub]++
}

// retire folds an evicted frame's utilisation and dirty words into the
// family's deferred accumulators.  The eviction count and residency
// denominator are tag-level facts accumulated at family level (see
// FlushUsage); the touched bits ripple into the vertical counters (a
// handful of word ops instead of a per-lane popcount), and only a
// frame with dirty bits -- copy-back families only -- takes the
// per-lane write-back loop.
func (f *Family) retire(fi int) {
	pb := fi * f.nPlanes
	for pj := 0; pj < f.nPlanes; pj++ {
		f.ripple(pj, f.touched[pb+pj])
		if d := f.dirty[pb+pj]; d != 0 {
			for li := range f.lanes {
				ln := &f.lanes[li]
				if ln.plane != pj {
					continue
				}
				if ld := (d >> ln.laneOff) & ln.subMask; ld != 0 {
					ln.stats.WriteBackWords += uint64(bits.OnesCount64(ld) * ln.wordsPerSub)
				}
			}
			f.dirty[pb+pj] = 0
		}
	}
}

// ripple adds one retired frame's touched word to plane pj's vertical
// counters: a ripple-carry add, spilling a carry out of the top level
// into vcSpill.
func (f *Family) ripple(pj int, carry uint64) {
	vc := f.vcTouch[pj*vcDepth : (pj+1)*vcDepth]
	for j := 0; carry != 0; j++ {
		if j == vcDepth {
			for m := carry; m != 0; m &= m - 1 {
				f.vcSpill[pj*64+bits.TrailingZeros64(m)] += 1 << vcDepth
			}
			return
		}
		t := vc[j] & carry
		vc[j] ^= carry
		carry = t
	}
}

// retireDirty folds an evicted single-plane frame's dirty words into
// the lanes' write-back counters and clears them: the copy-back slow
// half of the batch loop's inline miss path.
func (f *Family) retireDirty(fi int, d uint64) {
	for li := range f.lanes {
		ln := &f.lanes[li]
		if ld := (d >> ln.laneOff) & ln.subMask; ld != 0 {
			ln.stats.WriteBackWords += uint64(bits.OnesCount64(ld) * ln.wordsPerSub)
		}
	}
	f.dirty[fi] = 0
}

// FlushUsage finalises every lane's statistics: it folds still-resident
// blocks into the residency counters and distributes the family-level
// tag counters into each lane's cache.Stats, deriving Hits and Misses
// from the partition identities.  Call exactly once at end of trace;
// further calls are no-ops, and counters read before the flush are
// incomplete.
func (f *Family) FlushUsage() {
	if f.flushed {
		return
	}
	f.flushed = true
	resident := uint64(0)
	for i := range f.sets {
		s := &f.sets[i]
		for w, tag := range s.tags {
			if tag != noTag {
				resident++
				f.ripple(0, s.valid[w])
			}
		}
	}
	for s := range f.setFill {
		base := s * f.assoc
		for fi := base; fi < base+int(f.setFill[s]); fi++ {
			resident++
			f.retire(fi)
		}
	}

	// Reassemble the vertical counters into per-lane residency totals,
	// and expand the deferred histograms into per-lane counters.
	// Sub-block miss counts must land before Misses is derived below;
	// everything else is an order-independent total.
	for pj := 0; pj < f.nPlanes; pj++ {
		for b := 0; b < 64; b++ {
			cnt := f.vcSpill[pj*64+b]
			for j := 0; j < vcDepth; j++ {
				cnt += (f.vcTouch[pj*vcDepth+j] >> uint(b) & 1) << uint(j)
			}
			f.lanes[f.laneOfBit[pj*64+b]].stats.ResidencyTouched += cnt
		}
	}
	if f.sets != nil {
		for b := 0; b < 64; b++ {
			st := &f.lanes[f.laneOfBit[b]].stats
			st.WriteMisses += f.bitMiss[missWrite][b]
			st.WarmupMisses += f.bitMiss[missWarm][b]
		}
		// Under demand fetch a valid bit is set only by the reference
		// that touches it: the allocation, one bit per lane, or a
		// sub-block miss.  Every allocation is evicted or resident, so
		// ResidencyTouched less the allocations and the recorded write
		// and warm-up sub-block misses leaves the counted read ones,
		// each a one-sub-block fill.
		for li := range f.lanes {
			ln := &f.lanes[li]
			st := &ln.stats
			n := st.ResidencyTouched - (f.evictions + resident) - st.WriteMisses - st.WarmupMisses
			st.SubBlockMisses += n
			st.TxHist[ln.wordsPerSub] += n
			st.SubBlockFills += n
			st.WordsFetched += n * uint64(ln.wordsPerSub)
		}
	}
	for wo, n := range f.blkMissHist {
		if n == 0 {
			continue
		}
		for li := range f.lanes {
			st := &f.lanes[li].stats
			wf := uint64(f.missWords[li*f.blkWords+wo])
			st.TxHist[wf] += n
			st.SubBlockFills += uint64(f.missLoaded[li*f.blkWords+wo]) * n
			st.WordsFetched += wf * n
		}
	}

	ifetches := f.kindCount[trace.IFetch]
	reads := f.kindCount[trace.Read]
	accesses := ifetches + reads
	writeAccesses := f.writeAccesses + f.kindCount[trace.Write]
	for i := range f.lanes {
		ln := &f.lanes[i]
		st := &ln.stats
		st.Accesses = accesses
		st.IFetches = ifetches
		st.Reads = reads
		st.BlockMisses = f.blockMisses
		st.Misses = f.blockMisses + st.SubBlockMisses
		st.Hits = accesses - st.Misses
		st.WarmupAccesses = f.warmupAccesses
		st.WarmupMisses += f.warmupBlockMisses
		st.WriteAccesses = writeAccesses
		st.WriteMisses += f.writeBlockMisses
		st.Evictions = f.evictions
		st.WriteThroughWords += f.wtWords
		// Every retirement and every block resident at flush time
		// contributes one block's worth of sub-blocks to the residency
		// denominator.
		st.ResidencySubBlocks = (f.evictions + resident) * uint64(ln.subPerBlk)
	}
}

// Run drives the family with every access from src until EOF, then
// flushes residency usage.  src should already be word-split.  As for
// cache.Cache.Run, the stream is consumed in fixed-size chunks through
// AccessBatch.
func (f *Family) Run(src trace.Source) error {
	buf := make([]trace.Ref, trace.ChunkRefs)
	for {
		n, err := trace.ReadChunk(src, buf)
		f.AccessBatch(buf[:n])
		if err == io.EOF {
			f.FlushUsage()
			return nil
		}
		if err != nil {
			return fmt.Errorf("multipass: reading trace: %w", err)
		}
	}
}
