// Package multipass simulates a whole family of cache configurations in
// a single pass over a trace.
//
// The idea is the set-refinement structure behind stack-distance
// simulation (Mattson et al. 1970): for a fixed net size, block size and
// associativity, every sub-block size indexes the same sets, matches the
// same tags and -- provided nothing feeds sub-block state back into the
// tag array -- makes the same replacement decisions on the same
// accesses.  One shared tag/replacement engine can therefore carry a
// "lane" per sub-block size, each lane owning only its field of the
// per-frame valid bitmap and its own cache.Stats.  Simulating the k
// sub-block sizes of one Table 7 family then costs one trace pass and
// one tag probe per access instead of k.
//
// The kernel is bit-exact against cache.Cache: every counter in
// cache.Stats, including the bus-transaction histogram, is accumulated
// or derived by the same rules.  internal/multipass/diff_test.go and
// FuzzMultiPassEquivalence check the equivalence through every entry
// point on their traces; the sweep harness additionally
// regression-tests the generated paper artifacts, and an exact digest
// of the Table 7 counters, byte for byte across engines.
//
// To keep the batch loop tight, counters that are tag-level
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
// The kernel simulates one class of configuration, the paper's design
// point: LRU with at most four ways, demand fetch, write-allocate and
// write-through, with or without warm start -- every Table 7 family and
// every sweepd request.  Group and New admit only that class, in
// families whose lanes fit one 64-bit word.  Every other configuration
// (other fetch policies, copy-back, FIFO and Random, write-ignore,
// write-no-allocate, OBL prefetch, more than four ways) is left to the
// reference cache.Cache, which the sweep executor runs on the same
// trace pass.
//
// All lanes' sub-block bits for one frame are packed side by side into
// one valid word -- lane li owns the field [laneOff, laneOff+subPerBlk)
// -- and a small table precomputed per block offset gives, in one load,
// the OR of every lane's referenced-sub-block bit, so classifying a
// reference in every lane is one mask test whatever the lane count.
// The frames live in one record per set (setRec): four tags, four valid
// words and the packed LRU order byte.  Unfilled ways hold a tag no
// block number matches, so the probe compares all four ways with no
// jump and no fill count.
//
// The batch loop has three steps per piece of at most 256 references.
// Consecutive references mostly fall in the same block (the observation
// behind way memoization, Ishihara & Fallah), and within a piece a run
// of consecutive references to one block changes a set record exactly
// as its first reference would, with the run's need bits; so fold
// compacts the piece into such runs, and probeRuns resolves hit,
// sub-block miss, fill and victim choice once per run with masks and
// one store per field.  The probe only updates the frame: it appends
// each block miss's victim and each write miss's loaded bits to stack
// buffers, and everything else -- fills, evictions, reference kinds,
// each lane's touched bits (a popcount of the victims under its mask)
// and write misses -- is counted after the piece (settle).  Under demand
// fetch a valid bit is set only by the reference that touches it,
// exactly when its lane misses, so the valid word doubles as the
// touched word, and a lane's bits set over the trace count all its
// misses: its warm-up misses (taken when the warm-up ends, which is
// always at a piece's end) and its counted ones need no per-reference
// bookkeeping, since they are the residency count less the write
// misses.
//
// The fold depends only on the block size, the word size and the lane
// layout.  The families of one request that share them -- the nets of
// one block size, in Table 7 and in every sweepd request -- run as a
// Bundle, which folds each piece once for every family past its
// warm-up (see bundle.go).  The sweep executor runs every family in a
// bundle, a lone family in a bundle of one.
package multipass

import (
	"fmt"
	"math/bits"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/trace"
)

// lane is one configuration's cold state: its geometry, its field of
// the family's valid words and its statistics.
type lane struct {
	cfg         cache.Config
	mask        uint64 // the lane's bits of a valid word
	subPerBlk   uint
	wordsPerSub int
	stats       cache.Stats
}

// Family simulates a set of cache configurations that share tag-array
// dynamics (equal FamilyKey, all in the kernel's class) in one trace
// pass.  Not safe for concurrent use.
type Family struct {
	lanes []lane
	sets  []setRec

	// refBits[off>>wordShift] is the OR, over the lanes, of the bit for
	// the sub-block containing block offset off: the "which sub-block
	// does this reference touch" shift work for every lane collapses
	// into one table load.  Indexing by word offset is exact for any
	// byte offset because sub-blocks are at least a word.
	refBits []uint64

	filled     int  // frames filled at least once
	warmAt     int  // filled count that ends the warm-up (NumFrames, or 0 without WarmStart)
	flushed    bool // FlushUsage has folded the shared counters
	wordShift  uint
	blockShift uint

	// Tag-level event counts, identical in every lane and therefore
	// accumulated once per family instead of once per lane per access.
	// FlushUsage folds them into each lane's cache.Stats.
	ifetches       uint64 // counted-phase instruction fetches
	reads          uint64 // counted-phase reads
	writes         uint64 // every write; write-through moves one word each
	warmupAccesses uint64
	blockMisses    uint64 // counted block (tag) misses
	evictions      uint64
}

// recordClass reports whether cfg is in the one class the family
// kernel simulates: LRU with at most four ways (the packed order byte),
// demand fetch (the valid word doubles as the touched word), and
// write-allocate and write-through without OBL prefetch (no sub-block
// state feeds back into the tag array, and no dirty words).
func recordClass(cfg cache.Config) bool {
	return cfg.Replacement == cache.LRU && cfg.Assoc <= 4 && cfg.Fetch == cache.DemandSubBlock &&
		cfg.Write == cache.WriteAllocate && !cfg.CopyBack && !cfg.PrefetchOBL
}

// New builds a family kernel for the given configurations.  All
// configurations must validate, be in the kernel's class (LRU with at
// most four ways, demand fetch, write-allocate and write-through),
// share a FamilyKey (i.e. differ only in SubBlockSize) and together
// hold at most 64 sub-blocks per block.
func New(cfgs []cache.Config) (*Family, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("multipass: no configurations")
	}
	key := cfgs[0].FamilyKey()
	width := 0
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if !recordClass(cfg) {
			return nil, fmt.Errorf("multipass: %v: not LRU with at most 4 ways, demand fetch, write-allocate and write-through", cfg)
		}
		if cfg.FamilyKey() != key {
			return nil, fmt.Errorf("multipass: %v and %v are not in the same family", cfgs[0], cfg)
		}
		width += cfg.SubBlocksPerBlock()
	}
	if width > 64 {
		return nil, fmt.Errorf("multipass: %d lanes of %v need %d sub-block bits, more than 64", len(cfgs), key, width)
	}
	base := cfgs[0]
	f := &Family{
		lanes:      make([]lane, len(cfgs)),
		refBits:    make([]uint64, base.BlockSize/base.WordSize),
		wordShift:  addr.Log2(uint64(base.WordSize)),
		blockShift: addr.Log2(uint64(base.BlockSize)),
	}
	if base.WarmStart {
		f.warmAt = base.NumFrames()
	}
	// Each lane takes the next field of the valid word, in input order.
	off := uint(0)
	for i, cfg := range cfgs {
		subPerBlk := uint(cfg.SubBlocksPerBlock())
		subShift := addr.Log2(uint64(cfg.SubBlockSize))
		f.lanes[i] = lane{cfg: cfg, mask: (1<<subPerBlk - 1) << off, subPerBlk: subPerBlk, wordsPerSub: cfg.WordsPerSubBlock()}
		// Same pre-sizing as cache.New: fills record with one increment.
		f.lanes[i].stats.TxHist = make([]uint64, cfg.BlockSize/cfg.WordSize+1)
		for w := range f.refBits {
			f.refBits[w] |= 1 << (off + uint(w)<<f.wordShift>>subShift)
		}
		off += subPerBlk
	}
	// Every way starts unfilled, and the order byte lists the ways
	// highest first, so its LRU field is the lowest unfilled way until
	// the set is full: unfilled ways are never referenced and keep their
	// order behind every filled one.
	var order uint8
	for i := 0; i < base.Assoc; i++ {
		order |= uint8(base.Assoc-1-i) << (6 - 2*i)
	}
	f.sets = make([]setRec, base.NumSets())
	for i := range f.sets {
		f.sets[i] = setRec{tags: [4]uint64{noTag, noTag, noTag, noTag}, order: order}
	}
	return f, nil
}

// setRec is one set of a family: the ways' block numbers (noTag while
// unfilled), their valid words (every lane's field, which under demand
// fetch is also the touched word) and the packed LRU order byte (see
// mruTab).  A filled way's valid word is never zero, since every lane
// holds the sub-block that filled it.
type setRec struct {
	tags  [4]uint64
	valid [4]uint64
	order uint8
}

// noTag marks an unfilled way.  Packed block numbers are below 2^62, so
// no probe matches it.
const noTag = ^uint64(0)

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
// returned family is a list of indexes into cfgs, in first-appearance
// order, sharing a FamilyKey and all in the kernel's class; when the
// next lane would push its key's family past 64 sub-block bits, a new
// family opens for that key.  rest holds the indexes of configurations
// that need the reference simulator: those outside the class, and
// invalid ones, which cache.New reports.
func Group(cfgs []cache.Config) (families [][]int, rest []int) {
	type open struct{ fi, width int }
	byKey := make(map[cache.Config]open)
	for i, cfg := range cfgs {
		if !recordClass(cfg) || cfg.Validate() != nil {
			rest = append(rest, i)
			continue
		}
		key := cfg.FamilyKey()
		n := cfg.SubBlocksPerBlock()
		o, ok := byKey[key]
		if !ok || o.width+n > 64 {
			o = open{fi: len(families)}
			families = append(families, nil)
		}
		families[o.fi] = append(families[o.fi], i)
		o.width += n
		byKey[key] = o
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

// Access presents one word access to every lane of the family.  It
// runs the batch loop on the one packed word, so the reference's word
// index must be below 2^62, as for AccessBatch.
func (f *Family) Access(r trace.Ref) {
	v := [1]uint64{trace.PackRef(r, f.wordShift)}
	f.accessRecords(v[:])
}

// AccessBatch presents a chunk of word accesses to every lane, the
// batched equivalent of calling Access per reference.  It packs the
// chunk (trace.PackRefs) through a small stack buffer, batchPackRefs
// references at a time, and runs the batch loop on each piece, so a
// family owns no chunk-sized scratch.
func (f *Family) AccessBatch(refs []trace.Ref) {
	var buf [batchPackRefs]uint64
	for len(refs) > 0 {
		n := min(len(refs), len(buf))
		trace.PackRefs(buf[:n], refs[:n], f.wordShift)
		f.accessRecords(buf[:n])
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
// uint64(refs[i].Kind)).  Only packed is read; refs may be nil.  It
// runs the same batch loop as a bundle of one; the sweep executor hands
// each broadcast chunk to the workload's bundles instead
// (Bundle.AccessBatchPacked).
func (f *Family) AccessBatchPacked(refs []trace.Ref, packed []uint64) {
	f.accessRecords(packed)
}

// accessRecords runs the batch loop over packed in pieces of at most
// recordRefs references, on buffers of its own stack.
func (f *Family) accessRecords(packed []uint64) {
	var sc scratch
	f.records(packed, &sc)
}

// records runs the batch loop over packed in pieces of at most
// recordRefs references: it folds each piece into same-block runs and
// probes the runs.  While the warm-up lasts, a piece is cut at
// warmAt - filled references: a reference fills at most one frame, so
// every reference of such a piece is a warm-up reference, and the
// warm-up ends, if it does, exactly at its end.
func (f *Family) records(packed []uint64, sc *scratch) {
	for len(packed) > 0 {
		n := min(len(packed), recordRefs)
		if f.warming() {
			n = min(n, f.warmAt-f.filled)
		}
		nr, nW, nR := f.fold(packed[:n], sc)
		nv, nw, writeBlockMisses := f.probeRuns(sc.runs[:nr], sc)
		f.settle(sc, nv, nw, writeBlockMisses, uint64(n), nW, nR)
		packed = packed[n:]
	}
}

// warming reports whether the family is still in its warm-up.
func (f *Family) warming() bool { return f.filled < f.warmAt }

// recordRefs is the batch loop's longest piece.
const recordRefs = 256

// scratch is the batch loop's buffers, 12 KiB on the caller's stack:
// runs[k] is the piece's k'th same-block run, victims[k] the valid word
// the k'th block miss of the piece evicted (zero for an unfilled way),
// and writes[k] the k'th write miss's newly loaded bits.
type scratch struct {
	runs    [recordRefs]run
	victims [recordRefs]uint64
	writes  [recordRefs]uint64
}

// run is one same-block run of a piece: its block number, the OR of
// its references' need bits, the bits a write needed first -- the need
// bits of each write that no earlier reference of the run needed -- and
// 1 if its first reference writes.
type run struct {
	block, need, writeFirst, write uint64
}

// fold compacts piece into same-block runs in sc.runs, with
// unconditional stores and no jump: each reference rewrites the current
// run's record, and a reference to another block than its predecessor's
// opens the next one.  It returns the run count and the piece's write
// and read counts.  The fold depends only on f's block size, word size
// and lane layout, which a bundle's families share.
func (f *Family) fold(piece []uint64, sc *scratch) (nr, nW, nR uint64) {
	// New sizes refBits to a power of two; the emptiness test, never
	// true, lets the compiler prove the masked index below in bounds.
	refBits := f.refBits
	if len(refBits) == 0 {
		return 0, 0, 0
	}
	woMask := uint64(len(refBits) - 1)
	baShift := f.baShift()
	k := ^uint64(0) // the current run's index; the first reference opens run 0
	prev := noTag   // no block number matches it
	var need, writeFirst, write uint64
	for _, v := range piece {
		ba := v >> baShift
		rb := refBits[v>>2&woMask]
		w := v >> 1 & 1
		open := flag(ba != prev)
		k += open
		same := open - 1 // all ones within a run
		need &= same
		writeFirst = writeFirst&same | rb&^need&-w
		write = write&same | w&-open
		need |= rb
		r := &sc.runs[k&(recordRefs-1)]
		r.block, r.need, r.writeFirst, r.write = ba, need, writeFirst, write
		prev = ba
		nW += w
		nR += v & 1
	}
	return k + 1, nW, nR
}

// baShift is the right shift from a packed word to its block number.
func (f *Family) baShift() uint64 { return uint64(2+f.blockShift-f.wordShift) & 63 }

// probeRuns runs a piece's folded runs through the family's set
// records.  A run probes and updates its set record as its first
// reference would, with the run's need bits: only the first can
// block-miss, and it leaves the block resident and most recently used,
// so the later references hit and only OR their need bits into the
// valid word, and the order byte is unchanged by a second access to its
// front way.  So the write misses are the bits a write of the run needed
// first that the frame did not hold before it: the write-first bits
// less the prior valid word, which is zero on a block miss.  A run whose
// first reference writes and block-misses is a write block miss.
//
// The probe compares the block number with all four ways' tags into 0/1
// flags without a jump (at most one flag is set: a block is resident
// once), and the frame they select -- the hit way, else the order
// byte's LRU field -- takes its tag, valid word and order byte as
// unconditional stores, each of which rewrites the value it replaces
// where the run changes nothing.  The loop appends each block miss's
// victim and each write miss's newly loaded sub-block bits to sc, also
// as unconditional stores, so it has no call and no branch; everything
// else is counted after it (settle), which is left to the caller: a
// call here would keep the piece's counts live across the loop.  It
// returns the victim and write record counts in sc and the write block
// misses.
func (f *Family) probeRuns(rs []run, sc *scratch) (nv, nw, writeBlockMisses uint64) {
	// New sizes sets to a power of two; the emptiness test, never true,
	// lets the compiler prove the masked index below in bounds.
	sets := f.sets
	if len(sets) == 0 {
		return 0, 0, 0
	}
	setMask := uint64(len(sets) - 1)
	for i := range rs {
		r := &rs[i]
		ba := r.block
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
		keep := old & hitMask
		s.tags[way] = ba
		// Demand fetch loads exactly the referenced sub-blocks of every
		// lane: a tag hit ORs the bits in, a fill starts from them.
		s.valid[way] = keep | r.need
		s.order = mruTab[(o<<2|way)&1023]
		sc.victims[nv&(recordRefs-1)] = old
		nv += miss
		// The run's write misses: the bits its writes needed first that
		// the frame did not hold before it.
		loaded := r.writeFirst &^ keep
		sc.writes[nw&(recordRefs-1)] = loaded
		nw += flag(loaded != 0)
		writeBlockMisses += miss & r.write
	}
	return nv, nw, writeBlockMisses
}

// settle counts one piece from the batch loop's records: sc's first nv
// victims (writeBlockMisses of those block misses were writes) and nw
// write records, over n references of which nW were writes and nR
// reads.  The zero victims are fills and the others evictions.  An
// evicted frame's valid bits are its touched bits, and a lane's write
// misses are its bits of the write records.
func (f *Family) settle(sc *scratch, nv, nw, writeBlockMisses, n, nW, nR uint64) {
	victims, writes := sc.victims[:nv], sc.writes[:nw]
	var fills uint64
	for _, old := range victims {
		fills += flag(old == 0)
	}
	for i := range f.lanes {
		ln := &f.lanes[i]
		var touched, writeMisses uint64
		for _, old := range victims {
			touched += uint64(bits.OnesCount64(old & ln.mask))
		}
		for _, rec := range writes {
			writeMisses += uint64(bits.OnesCount64(rec & ln.mask))
		}
		ln.stats.ResidencyTouched += touched
		ln.stats.WriteMisses += writeMisses
	}
	warm := f.warming()
	f.filled += int(fills)
	f.evictions += nv - fills
	f.writes += nW
	if !warm {
		f.ifetches += n - nW - nR
		f.reads += nR
		f.blockMisses += nv - writeBlockMisses
		return
	}
	f.warmupAccesses += n - nW
	if f.filled == f.warmAt {
		f.endWarmup()
	}
}

// flag is 1 if b holds and 0 otherwise; on amd64 it compiles to a
// SETcc, not a jump.
func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// residentBits counts the bits of mask set in the resident frames'
// valid words; unfilled ways hold none.
func (f *Family) residentBits(mask uint64) uint64 {
	n := 0
	for i := range f.sets {
		for _, v := range f.sets[i].valid {
			n += bits.OnesCount64(v & mask)
		}
	}
	return uint64(n)
}

// endWarmup fixes each lane's warm-up misses when the warm-up ends, or
// at the flush if it never does.  Every reference sets at most one bit
// of a lane -- a block miss exactly one, in a fresh frame -- and sets
// it exactly when the lane misses, so the bits set so far, in evicted
// and resident frames, count the lane's misses so far: by then all of
// them are warm-up and write misses.
func (f *Family) endWarmup() {
	for i := range f.lanes {
		st := &f.lanes[i].stats
		st.WarmupMisses = st.ResidencyTouched + f.residentBits(f.lanes[i].mask) - st.WriteMisses
	}
}

// FlushUsage finalises every lane's statistics: it folds still-resident
// blocks into the residency counters and distributes the family-level
// tag counters into each lane's cache.Stats, deriving the counted misses
// from the residency count and Hits from the partition identity.  Call
// exactly once at end of trace; further calls are no-ops, and counters
// read before the flush are incomplete.
func (f *Family) FlushUsage() {
	if f.flushed {
		return
	}
	f.flushed = true
	if f.filled < f.warmAt {
		f.endWarmup()
	}
	// Frames are never invalidated, so the filled ones are resident.
	allocated := f.evictions + uint64(f.filled)
	accesses := f.ifetches + f.reads
	for i := range f.lanes {
		ln := &f.lanes[i]
		st := &ln.stats
		st.ResidencyTouched += f.residentBits(ln.mask)
		// As in endWarmup, the lane's bits set over the whole trace count
		// all its misses; less the warm-up and write ones, the counted
		// ones.  Every counted miss -- block or sub-block -- loads one
		// sub-block in one transaction.
		st.Misses = st.ResidencyTouched - st.WarmupMisses - st.WriteMisses
		st.SubBlockMisses = st.Misses - f.blockMisses
		st.TxHist[ln.wordsPerSub] = st.Misses
		st.SubBlockFills = st.Misses
		st.WordsFetched = st.Misses * uint64(ln.wordsPerSub)
		st.Accesses = accesses
		st.IFetches = f.ifetches
		st.Reads = f.reads
		st.BlockMisses = f.blockMisses
		st.Hits = accesses - st.Misses
		st.WarmupAccesses = f.warmupAccesses
		st.WriteAccesses = f.writes
		st.Evictions = f.evictions
		st.WriteThroughWords = f.writes
		// Every retirement and every block resident at flush time
		// contributes one block's worth of sub-blocks to the residency
		// denominator.
		st.ResidencySubBlocks = allocated * uint64(ln.subPerBlk)
	}
}
