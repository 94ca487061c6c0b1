// The one-pass stack-distance sweep engine.
//
// The Profiler in stackdist.go answers "what is this reference's LRU
// stack distance" for one fixed (block size, set count).  The Engine
// here generalises that into a first-class sweep kernel: shared LRU
// recency state per stack group -- configurations sharing a block
// size and write policy -- simulates *every* (net size, associativity,
// sub-block size, fetch policy) combination of the group exactly, in a
// single trace pass, byte-for-byte equal to cache.Cache and
// multipass.Family.
//
// Why shared recency lists suffice (Mattson et al. 1970, plus
// bit-selection set mapping): under LRU, the recency order of the
// blocks mapping to one set is the global recency order filtered to
// that set, and every block more recent than a configuration's
// least-recently-used resident is itself resident (the inclusion
// property).  The engine keeps one doubly-linked recency list per
// (set count, set) for each distinct set count in the group -- a
// reference costs one move-to-front per distinct set count, not per
// configuration -- and a configuration's eviction victim on a miss is
// simply the assoc'th node of its own set's list: the first assoc
// nodes are exactly the set's residents, so the victim search is
// assoc pointer chases, and running out of list first means the set
// is not yet full.
//
// Exact sub-block metrics ride on one further consequence of
// inclusion: between two touches of a block, its per-set LRU depth
// only grows, so a block leaves a configuration's resident set exactly
// when it is chosen as that configuration's victim.  Each
// configuration's lanes (sub-block size x fetch policy) therefore keep
// per-block valid/touched/dirty bitmaps on the list nodes, retired and
// refilled at exactly the evictions the victim search identifies --
// the same event sequence an independent cache.Cache would produce,
// hence the same Stats, transaction histogram included.
//
// Two structural consequences keep the kernel fast.  First, each node
// carries a residency mask with one bit per tag geometry, set at fill
// and cleared at eviction, so a reference is classified as hit or miss
// in every configuration at once by one table lookup plus one word
// load -- no recency traversal.  Victim searches run only for the
// configurations whose mask bit is clear.  (The mask is a single
// uint64, which caps a stack group at 64 distinct tag geometries;
// NewEngine rejects larger groups explicitly.)  Second, a block whose
// mask drops to zero -- evicted from every configuration -- can never
// be hit or chosen as a victim again (every block above any
// configuration's LRU resident is itself resident), so its node is
// retired to a free list and its table entry deleted: the lists track
// the union of the resident sets, bounding both memory and victim
// search length by the total cache capacity under study rather than
// the trace footprint.
//
// Eligibility: Supported requires LRU (FIFO and Random break the stack
// property) on top of MultiPassSafe.  The sweep harness declares
// unsupported configurations explicitly and simulates them by other
// engines in the same pass; this package never approximates.
package stackdist

import (
	"fmt"
	"io"
	"math/bits"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/trace"
)

// Supported reports whether the configuration's metrics can be computed
// exactly by stack-distance analysis, with a descriptive error when
// not.  The requirements, beyond validity:
//
//   - LRU replacement: the stack (inclusion) property -- a cache's
//     contents at associativity A nest inside those at A+1 -- holds for
//     LRU but not for FIFO or Random, so only LRU lets one recency list
//     stand in for every associativity.
//   - MultiPassSafe (no OBL prefetch, not write-no-allocate): tag-array
//     dynamics must not depend on sub-block state, or the shared
//     recency order would diverge from the simulated cache's.
//
// Warm start, copy-back, write-allocate and write-ignore are all
// supported.
func Supported(cfg cache.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Replacement != cache.LRU {
		return fmt.Errorf("stackdist: %v: %s replacement breaks the stack inclusion property (only LRU nests across associativities)", cfg, cfg.Replacement)
	}
	if !cfg.MultiPassSafe() {
		return fmt.Errorf("stackdist: %v: tag dynamics depend on sub-block state (prefetch or write-no-allocate)", cfg)
	}
	return nil
}

// Key returns the configuration with every field a stack group may vary
// across its members cleared.  Two supported configurations with equal
// keys can share one recency list: they agree on block granularity
// (BlockSize), on which references the list sees at all (Write), and on
// the fields Supported pins (Replacement, PrefetchOBL).  Net size,
// associativity, sub-block size, fetch policy, warm start and copy-back
// all vary within a group.
func Key(c cache.Config) cache.Config {
	c.NetSize = 0
	c.SubBlockSize = 0
	c.Assoc = 0
	c.Fetch = 0
	c.WarmStart = false
	c.CopyBack = false
	c.RandomSeed = 0
	return c
}

// lane is one input configuration's private accounting: the sub-block
// geometry and the Stats.  Its per-block valid/touched/dirty words live
// on the list nodes (see Engine.bits), not here.
type lane struct {
	cfg         cache.Config
	subShift    uint
	subPerBlk   uint
	subMask     uint64 // low subPerBlk bits set (the lane's local field)
	wordsPerSub int
	stats       cache.Stats
}

// tagCfg is one distinct tag-array geometry within the group -- a
// (NumSets, Assoc, WarmStart, CopyBack) combination, i.e. a
// cache.Config.FamilyKey -- carrying the tag-level counters shared by
// its lanes, exactly as multipass.Family does.
type tagCfg struct {
	setMask uint64 // NumSets-1: x is a set-mate of b iff (x^b)&setMask == 0
	assoc   int32
	gran    int32 // index into Engine.grans of this set count's lists
	// The configuration's lanes occupy the contiguous internal range
	// [lane0, lane1) of Engine.lanes, so the per-lane loops advance
	// their bits index by one triple per step.
	lane0, lane1 int32

	// Victim-search scratch, valid only within one Access: the node
	// index of the set's LRU resident; nilNode when the set is not full.
	victim int32

	// Warm-start state: counting starts once every frame has been
	// filled, mirroring cache.Cache.filled/warm.
	warm   bool
	filled int
	frames int
	// Snapshot of the engine's running reference totals at the moment
	// warm flipped (classified-as-warm-up refs inclusive); FlushUsage
	// derives the counted/warm-up split from it.
	warmIF, warmReads uint64

	// Tag-level event counters, identical in every lane.
	blockMisses       uint64
	warmupBlockMisses uint64
	writeBlockMisses  uint64
	evictions         uint64
}

// gran is one distinct set count's recency lists: heads[headOff+s] is
// the most recent block of set s (s = blk & mask), and every node
// carries a (prev, next) link pair per granularity (see Engine.links).
type gran struct {
	mask    uint64
	headOff int32
}

const (
	nilNode = int32(-1)
	// freeMark in a node's first link slot marks a retired node awaiting
	// reuse, so one access retiring the same victim for two
	// configurations frees it once.
	freeMark = int32(-2)
)

// blkTable maps block number -> node index: open addressing with
// linear probing and backward-shift deletion (retiring a node removes
// its key, so the table tracks resident blocks, not the footprint).
// Keys are stored +1 so zero means empty.
type blkTable struct {
	keys []uint64
	vals []int32
	mask uint64
	n    int
}

func newBlkTable() blkTable {
	const initial = 1024
	return blkTable{keys: make([]uint64, initial), vals: make([]int32, initial), mask: initial - 1}
}

// get returns the node index for blk, or (nilNode, false).
func (t *blkTable) get(blk uint64) (int32, bool) {
	h := (blk * 0x9E3779B97F4A7C15) & t.mask
	for {
		k := t.keys[h]
		if k == blk+1 {
			return t.vals[h], true
		}
		if k == 0 {
			return nilNode, false
		}
		h = (h + 1) & t.mask
	}
}

// put inserts blk -> ni (blk must not be present).
func (t *blkTable) put(blk uint64, ni int32) {
	if uint64(t.n+1)*4 > (t.mask+1)*3 {
		t.grow()
	}
	h := (blk * 0x9E3779B97F4A7C15) & t.mask
	for t.keys[h] != 0 {
		h = (h + 1) & t.mask
	}
	t.keys[h] = blk + 1
	t.vals[h] = ni
	t.n++
}

// del removes blk (which must be present) by backward-shift deletion:
// later entries of the probe cluster slide into the hole whenever their
// home slot permits, so lookups never need tombstones.
func (t *blkTable) del(blk uint64) {
	h := (blk * 0x9E3779B97F4A7C15) & t.mask
	for t.keys[h] != blk+1 {
		h = (h + 1) & t.mask
	}
	t.n--
	j := h
	for {
		t.keys[h] = 0
		for {
			j = (j + 1) & t.mask
			k := t.keys[j]
			if k == 0 {
				return
			}
			// The entry at j may fill the hole at h iff h lies
			// cyclically within [home(k), j].
			hk := ((k - 1) * 0x9E3779B97F4A7C15) & t.mask
			if (j-hk)&t.mask >= (j-h)&t.mask {
				break
			}
		}
		t.keys[h], t.vals[h] = t.keys[j], t.vals[j]
		h = j
	}
}

func (t *blkTable) grow() {
	old := *t
	size := (t.mask + 1) * 2
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.mask = size - 1
	for i, k := range old.keys {
		if k == 0 {
			continue
		}
		h := ((k - 1) * 0x9E3779B97F4A7C15) & t.mask
		for t.keys[h] != 0 {
			h = (h + 1) & t.mask
		}
		t.keys[h] = k
		t.vals[h] = old.vals[i]
	}
}

// Engine simulates one stack group -- every configuration sharing a
// Key -- in a single trace pass.  Not safe for concurrent use.
type Engine struct {
	blockShift uint
	offMask    uint64
	write      cache.WritePolicy

	// Set partitioning: the engine processes only references whose
	// block number satisfies blk & partMask == part.  partMask is
	// parts-1; zero means the whole stream.  Because every
	// configuration's set count is a multiple of parts, a partition is
	// a union of whole sets for every configuration at once, so
	// per-partition counters sum exactly (cache.Stats.Add) to the
	// unpartitioned run.
	partMask uint64
	part     uint64

	// Lanes are stored grouped by tag geometry (see tagCfg.lane0), in a
	// deterministic internal order; extLane maps NewEngine's input index
	// to the internal one for the public accessors.  The hot per-lane
	// scalars live in dense parallel arrays so the access loops touch
	// one cache line for the whole group instead of one lane struct
	// each: laneCB is the copy-back flag, laneWarm the owning tagCfg's
	// warm flag, cfgOfLane the owning tag geometry and
	// laneOff/lanePlane the lane's bit-plane placement.
	cfgs      []tagCfg
	lanes     []lane
	extLane   []int32
	laneCB    []bool
	laneWarm  []bool
	cfgOfLane []int32
	laneOff   []uint8
	lanePlane []int32

	// Per-node lane bitmaps use a struct-of-arrays bit-plane layout:
	// every lane owns the field [laneOff, laneOff+subPerBlk) of plane
	// word ni*nPlanes+plane, in three parallel arrays (valid, touched,
	// dirty) instead of strided per-lane triples.  A reference that hits everywhere then updates
	// nPlanes words, independent of the lane count.
	nPlanes int
	valid   []uint64
	touched []uint64
	dirty   []uint64

	// Precomputed bit tables, all indexed by block word offset wo =
	// (off >> wordShift):
	//
	//   refBits[wo*nPlanes+pj]: OR over plane pj's lanes of the bit for
	//     the sub-block containing wo -- the all-hit path's one load.
	//   refBitsC[(ci*blkWords+wo)*nPlanes+pj]: the same restricted to
	//     tag geometry ci's lanes, for the split hit/miss paths.
	//   missBitsC[(ci*blkWords+wo)*nPlanes+pj]: geometry ci's plane
	//     valid word after a block-miss fill at wo (fills start from a
	//     zeroed field, so the result is a pure function of wo).
	//   missWords/missLoaded[li*blkWords+wo]: lane li's words-per-fill
	//     transaction size and sub-blocks-loaded count for that fill.
	//   laneOfBit[pj*64+b]: the lane owning bit b of plane pj.
	//   cfgMask[ci*nPlanes+pj]: OR of geometry ci's lane fields.
	//   cbMask[pj]: OR of the copy-back lanes' fields.
	refBits    []uint64
	refBitsC   []uint64
	missBitsC  []uint64
	missWords  []int32
	missLoaded []int32
	laneOfBit  []int32
	cfgMask    []uint64
	cbMask     []uint64
	wordShift  uint
	blkWords   int

	// Same-block memo: the node of the last block looked up, or
	// nilNode.  Trace locality makes consecutive references repeat
	// blocks, so one compare usually replaces the hash-table probe.
	// freeNode invalidates the memo when it retires the memoized node.
	memoBlk uint64
	memoNi  int32

	// The recency structure: one doubly-linked list per (granularity,
	// set), where the granularities are the group's distinct set
	// counts, most recent at the head.  Nodes are arena entries
	// addressed by index: blks holds each node's block number, resMask
	// its residency mask (bit ci set iff configuration ci holds the
	// block), and links its (prev, next) pair per granularity -- node
	// ni's pair for granularity g sits at links[ni*lstride + 2g]; the
	// lane bitmaps live in the valid/touched/dirty plane arrays above.
	// Retired nodes (mask dropped to zero) chain off freeHead through
	// their second link slot, first slot freeMark, so the arena size
	// tracks the union of the resident sets, not the footprint.
	grans   []gran
	lstride int
	heads   []int32
	blks    []uint64
	resMask []uint64
	allMask uint64
	links   []int32

	freeHead int32
	nFree    int
	table    blkTable

	// Running reference totals over the group's processed stream, the
	// shared half of every configuration's access classification.
	ifetches uint64
	reads    uint64
	writes   uint64

	flushed bool
}

// NewEngine builds a stack engine for the given configurations, which must
// all be Supported and share a Key.  parts/part select one set
// partition (parts a power of two, part < parts); pass 1, 0 for the
// whole stream.  Partitioning requires every configuration's set count
// to be at least parts and rejects warm-start configurations, whose
// fill progress is global across sets.
func NewEngine(cfgs []cache.Config, parts, part uint64) (*Engine, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("stackdist: no configurations")
	}
	if parts == 0 {
		parts = 1
	}
	if !addr.IsPow2(parts) {
		return nil, fmt.Errorf("stackdist: partition count %d is not a power of two", parts)
	}
	if part >= parts {
		return nil, fmt.Errorf("stackdist: partition %d out of range (parts %d)", part, parts)
	}
	key := Key(cfgs[0])
	for _, cfg := range cfgs {
		if err := Supported(cfg); err != nil {
			return nil, err
		}
		if Key(cfg) != key {
			return nil, fmt.Errorf("stackdist: %v and %v are not in the same stack group", cfgs[0], cfg)
		}
		if parts > 1 {
			if cfg.WarmStart {
				return nil, fmt.Errorf("stackdist: %v: warm-start fill progress is global, cannot set-partition", cfg)
			}
			if uint64(cfg.NumSets()) < parts {
				return nil, fmt.Errorf("stackdist: %v: %d sets cannot be split into %d partitions", cfg, cfg.NumSets(), parts)
			}
		}
	}
	base := cfgs[0]
	e := &Engine{
		blockShift: addr.Log2(uint64(base.BlockSize)),
		offMask:    uint64(base.BlockSize - 1),
		write:      base.Write,
		partMask:   parts - 1,
		part:       part,
		wordShift:  addr.Log2(uint64(base.WordSize)),
		blkWords:   base.BlockSize / base.WordSize,
		freeHead:   nilNode,
		memoNi:     nilNode,
		table:      newBlkTable(),
	}
	byFam := make(map[cache.Config]int)
	cfgOf := make([]int, len(cfgs))
	for i, cfg := range cfgs {
		fk := cfg.FamilyKey()
		ci, ok := byFam[fk]
		if !ok {
			ci = len(e.cfgs)
			byFam[fk] = ci
			e.cfgs = append(e.cfgs, tagCfg{
				setMask: uint64(cfg.NumSets() - 1),
				assoc:   int32(cfg.Assoc),
				victim:  nilNode,
				warm:    !cfg.WarmStart,
				frames:  cfg.NumFrames(),
			})
		}
		cfgOf[i] = ci
		e.cfgs[ci].lane1++ // lane count, rewritten to a range below
	}
	// Give each geometry its contiguous internal lane range, then place
	// the lanes: geometries in first-appearance order, input order
	// within a geometry.
	off := int32(0)
	for ci := range e.cfgs {
		n := e.cfgs[ci].lane1
		e.cfgs[ci].lane0, e.cfgs[ci].lane1 = off, off
		off += n
	}
	e.lanes = make([]lane, len(cfgs))
	e.extLane = make([]int32, len(cfgs))
	e.laneCB = make([]bool, len(cfgs))
	e.laneWarm = make([]bool, len(cfgs))
	for i, cfg := range cfgs {
		c := &e.cfgs[cfgOf[i]]
		li := c.lane1
		c.lane1++
		e.extLane[i] = li
		e.lanes[li] = lane{
			cfg:         cfg,
			subShift:    addr.Log2(uint64(cfg.SubBlockSize)),
			subPerBlk:   uint(cfg.SubBlocksPerBlock()),
			subMask:     ^uint64(0) >> (64 - uint(cfg.SubBlocksPerBlock())),
			wordsPerSub: cfg.WordsPerSubBlock(),
		}
		// Same pre-sizing as cache.New and multipass.New: fills record
		// with one increment.
		e.lanes[li].stats.TxHist = make([]uint64, cfg.BlockSize/cfg.WordSize+1)
		e.laneCB[li] = cfg.CopyBack
		e.laneWarm[li] = !cfg.WarmStart
	}
	if len(e.cfgs) > 64 {
		return nil, fmt.Errorf("stackdist: %d distinct tag geometries in one stack group exceed the 64 tracked by the residency mask; split the group", len(e.cfgs))
	}
	e.allMask = ^uint64(0) >> (64 - uint(len(e.cfgs)))
	// One list granularity per distinct set count, coarsest first (the
	// order is cosmetic; victim searches index by tagCfg.gran).
	for ci := range e.cfgs {
		c := &e.cfgs[ci]
		g := -1
		for gi := range e.grans {
			if e.grans[gi].mask == c.setMask {
				g = gi
				break
			}
		}
		if g < 0 {
			g = len(e.grans)
			e.grans = append(e.grans, gran{mask: c.setMask, headOff: int32(len(e.heads))})
			for s := uint64(0); s <= c.setMask; s++ {
				e.heads = append(e.heads, nilNode)
			}
		}
		c.gran = int32(g)
	}
	e.lstride = 2 * len(e.grans)

	// Bit-plane placement, first-fit in internal lane order: a lane's
	// field occupies subPerBlk contiguous bits of one plane word and
	// never straddles planes.  A block-size ladder sums to at most
	// 2*subPerBlkMax-1 <= 63 bits per geometry, so real groups use one
	// plane word per one or two geometries.
	e.cfgOfLane = make([]int32, len(cfgs))
	e.laneOff = make([]uint8, len(cfgs))
	e.lanePlane = make([]int32, len(cfgs))
	var planeUsed []int
	for ci := range e.cfgs {
		c := &e.cfgs[ci]
		for li := c.lane0; li < c.lane1; li++ {
			e.cfgOfLane[li] = int32(ci)
			n := int(e.lanes[li].subPerBlk)
			pj := -1
			for j, used := range planeUsed {
				if used+n <= 64 {
					pj = j
					break
				}
			}
			if pj < 0 {
				pj = len(planeUsed)
				planeUsed = append(planeUsed, 0)
			}
			e.lanePlane[li] = int32(pj)
			e.laneOff[li] = uint8(planeUsed[pj])
			planeUsed[pj] += n
		}
	}
	e.nPlanes = len(planeUsed)

	np, words := e.nPlanes, e.blkWords
	e.refBits = make([]uint64, words*np)
	e.refBitsC = make([]uint64, len(e.cfgs)*words*np)
	e.missBitsC = make([]uint64, len(e.cfgs)*words*np)
	e.missWords = make([]int32, len(cfgs)*words)
	e.missLoaded = make([]int32, len(cfgs)*words)
	e.laneOfBit = make([]int32, np*64)
	e.cfgMask = make([]uint64, len(e.cfgs)*np)
	e.cbMask = make([]uint64, np)
	for li := range e.lanes {
		ln := &e.lanes[li]
		ci := int(e.cfgOfLane[li])
		pj := int(e.lanePlane[li])
		offb := uint(e.laneOff[li])
		for b := uint(0); b < ln.subPerBlk; b++ {
			e.laneOfBit[pj*64+int(offb+b)] = int32(li)
		}
		e.cfgMask[ci*np+pj] |= ln.subMask << offb
		if ln.cfg.CopyBack {
			e.cbMask[pj] |= ln.subMask << offb
		}
		for wo := 0; wo < words; wo++ {
			sub := uint(wo) >> (ln.subShift - e.wordShift)
			e.refBits[wo*np+pj] |= 1 << (offb + sub)
			e.refBitsC[(ci*words+wo)*np+pj] |= 1 << (offb + sub)
			// Block-miss fills start from a zeroed field, so the
			// resulting valid bits, transaction size and sub-blocks
			// loaded are pure functions of the fetch policy and wo
			// (LoadForwardOptimized degenerates to LoadForward's single
			// run when nothing is valid).
			var local uint64
			var loaded int
			switch ln.cfg.Fetch {
			case cache.DemandSubBlock:
				local, loaded = 1<<sub, 1
			case cache.LoadForward, cache.LoadForwardOptimized:
				local = ln.subMask &^ (1<<sub - 1)
				loaded = int(ln.subPerBlk - sub)
			case cache.WholeBlock:
				local, loaded = ln.subMask, int(ln.subPerBlk)
			}
			e.missBitsC[(ci*words+wo)*np+pj] |= local << offb
			e.missWords[li*words+wo] = int32(loaded * ln.wordsPerSub)
			e.missLoaded[li*words+wo] = int32(loaded)
		}
	}
	return e, nil
}

// Lanes returns the number of configurations the engine simulates.
func (e *Engine) Lanes() int { return len(e.lanes) }

// Config returns the i'th configuration, in NewEngine's input order.
func (e *Engine) Config(i int) cache.Config { return e.lanes[e.extLane[i]].cfg }

// Stats returns the i'th configuration's statistics.  As for multipass,
// the tag-level counters are only folded in by FlushUsage: call it once
// at end of trace before reading.  For a partitioned engine the stats
// cover only this partition's sets; sum sibling partitions with
// cache.Stats.Add for the full-stream counters.
func (e *Engine) Stats(i int) *cache.Stats { return &e.lanes[e.extLane[i]].stats }

// Footprint returns the number of blocks currently resident in at
// least one configuration (in this partition).
func (e *Engine) Footprint() int { return len(e.blks) - e.nFree }

// newNode returns a node for blk (bits and residency mask zeroed),
// reusing a retired slot when one is free.  The caller links it.
func (e *Engine) newNode(blk uint64) int32 {
	ni := e.freeHead
	if ni != nilNode {
		// A node is retired only once its residency mask dropped to
		// zero, and each eviction zeroes that configuration's plane
		// fields, so the slot's planes and mask are already zero.
		e.freeHead = e.links[int(ni)*e.lstride+1]
		e.nFree--
		e.blks[ni] = blk
	} else {
		ni = int32(len(e.blks))
		e.blks = append(e.blks, blk)
		e.resMask = append(e.resMask, 0)
		for i := 0; i < e.lstride; i++ {
			e.links = append(e.links, nilNode)
		}
		for i := 0; i < e.nPlanes; i++ {
			e.valid = append(e.valid, 0)
			e.touched = append(e.touched, 0)
			e.dirty = append(e.dirty, 0)
		}
	}
	e.table.put(blk, ni)
	return ni
}

// freeNode unlinks a dead node from every granularity, removes its
// table entry and chains its slot onto the free list.
func (e *Engine) freeNode(ni int32) {
	blk := e.blks[ni]
	nb := int(ni) * e.lstride
	for g := range e.grans {
		p, n := e.links[nb+2*g], e.links[nb+2*g+1]
		if p != nilNode {
			e.links[int(p)*e.lstride+2*g+1] = n
		} else {
			gr := &e.grans[g]
			e.heads[int(gr.headOff)+int(blk&gr.mask)] = n
		}
		if n != nilNode {
			e.links[int(n)*e.lstride+2*g] = p
		}
	}
	e.table.del(blk)
	if ni == e.memoNi {
		e.memoNi = nilNode
	}
	e.links[nb] = freeMark
	e.links[nb+1] = e.freeHead
	e.freeHead = ni
	e.nFree++
}

// pushAll links a fresh node at the head of its set's list in every
// granularity.
func (e *Engine) pushAll(ni int32, blk uint64) {
	nb := int(ni) * e.lstride
	for g := range e.grans {
		gr := &e.grans[g]
		hi := int(gr.headOff) + int(blk&gr.mask)
		h := e.heads[hi]
		e.links[nb+2*g] = nilNode
		e.links[nb+2*g+1] = h
		if h != nilNode {
			e.links[int(h)*e.lstride+2*g] = ni
		}
		e.heads[hi] = ni
	}
}

// moveToFront restores the node to the head of its set's list in every
// granularity where it is not already the most recent block.
func (e *Engine) moveToFront(ni int32, blk uint64) {
	nb := int(ni) * e.lstride
	for g := range e.grans {
		gr := &e.grans[g]
		hi := int(gr.headOff) + int(blk&gr.mask)
		h := e.heads[hi]
		if h == ni {
			continue
		}
		// ni is mid-list, so it has a predecessor, and the head exists.
		p, n := e.links[nb+2*g], e.links[nb+2*g+1]
		e.links[int(p)*e.lstride+2*g+1] = n
		if n != nilNode {
			e.links[int(n)*e.lstride+2*g] = p
		}
		e.links[nb+2*g] = nilNode
		e.links[nb+2*g+1] = h
		e.links[int(h)*e.lstride+2*g] = ni
		e.heads[hi] = ni
	}
}

// findVictim returns the configuration's eviction victim for a miss on
// blk: the assoc'th node of the set's recency list.  nilNode means the
// set holds fewer than assoc blocks (not yet full).  Exact because the
// lists hold every block resident in at least one configuration in
// recency order, and every block above this configuration's LRU
// resident is itself resident here (inclusion), so the list's first
// assoc nodes are precisely the set's residents and the last of them
// its LRU block.
func (e *Engine) findVictim(c *tagCfg, blk uint64) int32 {
	g := int(c.gran)
	gr := &e.grans[g]
	x := e.heads[int(gr.headOff)+int(blk&gr.mask)]
	need := c.assoc
	if need == 1 {
		// Direct-mapped: the victim is the set's most recent block.
		return x
	}
	next := 2*g + 1
	for x != nilNode {
		need--
		if need == 0 {
			return x
		}
		x = e.links[int(x)*e.lstride+next]
	}
	return nilNode
}

// Access presents one word access to every configuration of the group.
func (e *Engine) Access(r trace.Ref) {
	isWrite := r.Kind == trace.Write
	if isWrite && e.write == cache.WriteIgnore {
		return
	}
	blk := uint64(r.Addr) >> e.blockShift
	if blk&e.partMask != e.part {
		return
	}
	e.access(blk, uint(uint64(r.Addr)&e.offMask), r.Kind)
}

// access processes one partition-accepted reference: blk is the block
// number, off the byte offset within the block.
func (e *Engine) access(blk uint64, off uint, kind trace.Kind) {
	isWrite := kind == trace.Write
	if isWrite {
		e.writes++
	} else if kind == trace.IFetch {
		e.ifetches++
	} else {
		e.reads++
	}

	// Same-block memo first -- trace locality repeats blocks, so one
	// compare usually replaces the hash probe -- then the table.
	var ni int32
	var found bool
	if blk == e.memoBlk && e.memoNi != nilNode {
		ni, found = e.memoNi, true
	} else if ni, found = e.table.get(blk); found {
		e.memoBlk, e.memoNi = blk, ni
	}

	// Classify every configuration at once from the node's residency
	// mask: the block hits exactly where its bit is set (at fill),
	// misses where it is clear (at eviction).  No recency traversal.
	var resident uint64
	if found {
		resident = e.resMask[ni]
	}
	missing := e.allMask &^ resident

	if missing == 0 {
		// Hit everywhere -- the dominant case: one load-test-OR per
		// plane word covers every lane at once, with the rare sub-block
		// miss peeled out by bit, then the block moves to its list
		// heads.
		wo := int(off >> e.wordShift)
		nb := int(ni) * e.nPlanes
		ob := wo * e.nPlanes
		for pj := 0; pj < e.nPlanes; pj++ {
			need := e.refBits[ob+pj]
			if sm := need &^ e.valid[nb+pj]; sm != 0 {
				e.subMiss(pj, nb+pj, off, sm, isWrite)
			}
			e.touched[nb+pj] |= need
			if isWrite {
				e.dirty[nb+pj] |= need & e.cbMask[pj]
			}
		}
		e.moveToFront(ni, blk)
		return
	}

	// Victim search for the missing configurations only, before the
	// block is moved to its list heads.
	for m := missing; m != 0; m &= m - 1 {
		c := &e.cfgs[bits.TrailingZeros64(m)]
		c.victim = e.findVictim(c, blk)
	}

	if !found {
		ni = e.newNode(blk)
		e.memoBlk, e.memoNi = blk, ni
	}
	for ci := range e.cfgs {
		if missing&(1<<uint(ci)) != 0 {
			e.missCfg(ci, ni, off, isWrite)
		} else {
			e.hitCfg(ci, ni, off, isWrite)
		}
	}
	if found {
		e.moveToFront(ni, blk)
	} else {
		e.pushAll(ni, blk)
	}

	// Retire victims now evicted from every configuration: they can
	// never be hit (non-resident) or chosen as a victim (below every
	// LRU resident) again.
	for m := missing; m != 0; m &= m - 1 {
		v := e.cfgs[bits.TrailingZeros64(m)].victim
		if v == nilNode || e.resMask[v] != 0 || e.links[int(v)*e.lstride] == freeMark {
			continue
		}
		e.freeNode(v)
	}
}

// subMiss resolves the sub-block misses in one plane word: sm holds
// the referenced bits absent from valid[wi], one bit per missing lane
// (a reference touches exactly one bit per lane).
func (e *Engine) subMiss(pj, wi int, off uint, sm uint64, isWrite bool) {
	for m := sm; m != 0; m &= m - 1 {
		li := e.laneOfBit[pj*64+bits.TrailingZeros64(m)]
		ln := &e.lanes[li]
		counted := !isWrite && e.laneWarm[li]
		if counted {
			ln.stats.SubBlockMisses++
		} else if !isWrite {
			ln.stats.WarmupMisses++
		} else {
			ln.stats.WriteMisses++
		}
		e.fillLane(ln, uint(e.laneOff[li]), wi, off>>ln.subShift, counted)
	}
}

// hitCfg resolves a tag hit for geometry ci: the per-plane walk of the
// all-hit path, restricted to the geometry's own bit fields, mirroring
// the tag-hit path of cache.Cache.access.
func (e *Engine) hitCfg(ci int, ni int32, off uint, isWrite bool) {
	wo := int(off >> e.wordShift)
	nb := int(ni) * e.nPlanes
	cb := (ci*e.blkWords + wo) * e.nPlanes
	for pj := 0; pj < e.nPlanes; pj++ {
		need := e.refBitsC[cb+pj]
		if need == 0 {
			continue
		}
		if sm := need &^ e.valid[nb+pj]; sm != 0 {
			e.subMiss(pj, nb+pj, off, sm, isWrite)
		}
		e.touched[nb+pj] |= need
		if isWrite {
			e.dirty[nb+pj] |= need & e.cbMask[pj]
		}
	}
}

// missCfg resolves a block (tag) miss for configuration ci: the victim
// the search identified (if any) is retired, warm-start fill progress
// advances, and the new block's lane state is initialised, mirroring
// the block-miss path of cache.Cache.access.
func (e *Engine) missCfg(ci int, ni int32, off uint, isWrite bool) {
	c := &e.cfgs[ci]
	counted := !isWrite && c.warm
	if counted {
		c.blockMisses++
	} else if !isWrite {
		c.warmupBlockMisses++
	} else {
		c.writeBlockMisses++
	}
	if c.victim != nilNode {
		c.evictions++
		e.resMask[c.victim] &^= 1 << uint(ci)
		vb := int(c.victim) * e.nPlanes
		mb := ci * e.nPlanes
		for pj := 0; pj < e.nPlanes; pj++ {
			cm := e.cfgMask[mb+pj]
			if cm == 0 {
				continue
			}
			t := e.touched[vb+pj] & cm
			d := e.dirty[vb+pj] & cm
			if t|d != 0 {
				for li := c.lane0; li < c.lane1; li++ {
					if e.lanePlane[li] != int32(pj) {
						continue
					}
					ln := &e.lanes[li]
					offb := uint(e.laneOff[li])
					ln.stats.ResidencyTouched += uint64(bits.OnesCount64(t >> offb & ln.subMask))
					if dd := d >> offb & ln.subMask; dd != 0 {
						ln.stats.WriteBackWords += uint64(bits.OnesCount64(dd) * ln.wordsPerSub)
					}
				}
			}
			e.valid[vb+pj] &^= cm
			e.touched[vb+pj] &^= cm
			e.dirty[vb+pj] &^= cm
		}
	} else {
		c.filled++
		if c.filled == c.frames && !c.warm {
			c.warm = true
			for li := c.lane0; li < c.lane1; li++ {
				e.laneWarm[li] = true
			}
			// Totals include the current (warm-up-classified) reference,
			// so the snapshot is exactly the warm-up share.
			c.warmIF = e.ifetches
			c.warmReads = e.reads
		}
	}
	// Fill: the geometry's plane fields take their precomputed
	// block-miss state (valid from missBitsC, touched from the
	// referenced bits), and the per-lane transaction accounting reads
	// the matching precomputed sizes.
	e.resMask[ni] |= 1 << uint(ci)
	wo := int(off >> e.wordShift)
	nb := int(ni) * e.nPlanes
	cb := (ci*e.blkWords + wo) * e.nPlanes
	mb := ci * e.nPlanes
	for pj := 0; pj < e.nPlanes; pj++ {
		cm := e.cfgMask[mb+pj]
		if cm == 0 {
			continue
		}
		rb := e.refBitsC[cb+pj]
		e.valid[nb+pj] = e.valid[nb+pj]&^cm | e.missBitsC[cb+pj]
		e.touched[nb+pj] = e.touched[nb+pj]&^cm | rb
		if isWrite {
			e.dirty[nb+pj] = e.dirty[nb+pj]&^cm | rb&e.cbMask[pj]
		} else {
			e.dirty[nb+pj] &^= cm
		}
	}
	if counted {
		for li := c.lane0; li < c.lane1; li++ {
			ln := &e.lanes[li]
			ln.stats.TxHist[e.missWords[int(li)*e.blkWords+wo]]++
			loaded := uint64(e.missLoaded[int(li)*e.blkWords+wo])
			ln.stats.SubBlockFills += loaded
			ln.stats.WordsFetched += loaded * uint64(ln.wordsPerSub)
		}
	}
}

// fillLane loads sub-blocks into the lane's field (at bit offset offb
// of plane word valid[wi]) according to its fetch policy, with the
// same mask arithmetic as cache.Cache.fill: set bits come from one
// OR, counts from popcount deltas, and LoadForwardOptimized's
// transaction runs from trailing-zeros scans over the missing mask.
func (e *Engine) fillLane(ln *lane, offb uint, wi int, subIdx uint, counted bool) {
	lv := e.valid[wi] >> offb & ln.subMask
	var loaded, redundant int
	switch ln.cfg.Fetch {
	case cache.DemandSubBlock:
		lv |= 1 << subIdx
		loaded = 1

	case cache.LoadForward:
		mask := ln.subMask &^ (1<<subIdx - 1)
		redundant = bits.OnesCount64(lv & mask)
		loaded = int(ln.subPerBlk - subIdx)
		lv |= mask

	case cache.LoadForwardOptimized:
		missing := (ln.subMask &^ (1<<subIdx - 1)) &^ lv
		loaded = bits.OnesCount64(missing)
		for m := missing; m != 0; {
			start := uint(bits.TrailingZeros64(m))
			run := bits.TrailingZeros64(^(m >> start))
			e.recordTransaction(ln, run, counted)
			m &^= (1<<uint(run) - 1) << start
		}
		lv |= missing
		e.valid[wi] |= lv << offb
		if counted {
			ln.stats.SubBlockFills += uint64(loaded)
			ln.stats.WordsFetched += uint64(loaded * ln.wordsPerSub)
		}
		return

	case cache.WholeBlock:
		redundant = bits.OnesCount64(lv)
		loaded = int(ln.subPerBlk)
		lv = ln.subMask
	}
	e.valid[wi] |= lv << offb
	e.recordTransaction(ln, loaded, counted)
	if counted {
		ln.stats.SubBlockFills += uint64(loaded)
		ln.stats.RedundantLoads += uint64(redundant)
		ln.stats.WordsFetched += uint64(loaded * ln.wordsPerSub)
	}
}

func (e *Engine) recordTransaction(ln *lane, n int, counted bool) {
	if !counted || n == 0 {
		return
	}
	ln.stats.TxHist[n*ln.wordsPerSub]++
}

// AccessBatch presents a chunk of word accesses, the batched equivalent
// of calling Access per reference.
func (e *Engine) AccessBatch(refs []trace.Ref) {
	for i := range refs {
		e.Access(refs[i])
	}
}

// AccessBatchPacked is AccessBatch on the chunk's packed form
// (trace.PackRefs at the group's word size), so the per-reference
// decode is one load and two shifts.  Only packed is read; refs may be
// nil.  The sweep executor packs each broadcast chunk once and hands
// the same words to every stack engine and family of the workload.
func (e *Engine) AccessBatchPacked(refs []trace.Ref, packed []uint64) {
	baShift := 2 + e.blockShift - e.wordShift
	woMask := uint64(e.blkWords - 1)
	wIgnore := e.write == cache.WriteIgnore
	for i := range packed {
		v := packed[i]
		k := trace.Kind(v & 3)
		if k == trace.Write && wIgnore {
			continue
		}
		blk := v >> baShift
		if blk&e.partMask != e.part {
			continue
		}
		e.access(blk, uint(v>>2&woMask)<<e.wordShift, k)
	}
}

// FlushUsage finalises every configuration's statistics: still-resident
// blocks are folded into the residency counters (a block is resident in
// a configuration iff its valid bits there are nonzero, so one arena
// scan covers every configuration), and the tag-level counters are
// distributed into each lane's cache.Stats by the same partition
// identities multipass.Family.FlushUsage uses.  Call exactly once at
// end of trace; further calls are no-ops.
func (e *Engine) FlushUsage() {
	if e.flushed {
		return
	}
	e.flushed = true
	for ni := range e.blks {
		if e.links[ni*e.lstride] == freeMark {
			continue
		}
		nb := ni * e.nPlanes
		for li := range e.lanes {
			ln := &e.lanes[li]
			wi := nb + int(e.lanePlane[li])
			offb := uint(e.laneOff[li])
			if e.valid[wi]>>offb&ln.subMask == 0 {
				continue
			}
			ln.stats.ResidencyTouched += uint64(bits.OnesCount64(e.touched[wi] >> offb & ln.subMask))
			if d := e.dirty[wi] >> offb & ln.subMask; d != 0 {
				ln.stats.WriteBackWords += uint64(bits.OnesCount64(d) * ln.wordsPerSub)
				e.dirty[wi] &^= ln.subMask << offb
			}
		}
	}
	for ci := range e.cfgs {
		c := &e.cfgs[ci]
		if !c.warm {
			// Never warmed: every non-write reference was warm-up.
			c.warmIF = e.ifetches
			c.warmReads = e.reads
		}
		ifetches := e.ifetches - c.warmIF
		reads := e.reads - c.warmReads
		accesses := ifetches + reads
		for li := c.lane0; li < c.lane1; li++ {
			ln := &e.lanes[li]
			st := &ln.stats
			// Every non-ignored write falls through to memory once per
			// write-through lane, so the per-lane counter the eager
			// paths used to keep is just the shared write total.
			if !e.laneCB[li] {
				st.WriteThroughWords += e.writes
			}
			st.Accesses = accesses
			st.IFetches = ifetches
			st.Reads = reads
			st.BlockMisses = c.blockMisses
			st.Misses = c.blockMisses + st.SubBlockMisses
			st.Hits = accesses - st.Misses
			st.WarmupAccesses = c.warmIF + c.warmReads
			st.WarmupMisses += c.warmupBlockMisses
			st.WriteAccesses = e.writes
			st.WriteMisses += c.writeBlockMisses
			st.Evictions = c.evictions
			// Every block ever filled is still resident at flush (tags
			// never invalidate), so filled is the resident count, and
			// each retirement or final residency contributes one block
			// of sub-blocks to the utilisation denominator.
			st.ResidencySubBlocks = (c.evictions + uint64(c.filled)) * uint64(ln.subPerBlk)
		}
	}
}

// Run drives the engine with every access from src until EOF, then
// flushes.  src should already be word-split.
func (e *Engine) Run(src trace.Source) error {
	buf := make([]trace.Ref, trace.ChunkRefs)
	for {
		n, err := trace.ReadChunk(src, buf)
		e.AccessBatch(buf[:n])
		if err == io.EOF {
			e.FlushUsage()
			return nil
		}
		if err != nil {
			return fmt.Errorf("stackdist: reading trace: %w", err)
		}
	}
}
