package multipass

import (
	"fmt"
	"slices"

	"subcache/internal/cache"
)

// Bundle simulates the families of one request that share a block size,
// a word size and a lane layout -- in Table 7 and in every sweepd
// request, the nets of one block size -- in one pass, folding each
// piece of the trace once for all of them.
//
// Consecutive references mostly fall in the same block (the observation
// behind way memoization, Ishihara & Fallah), and within a piece a run
// of consecutive references to one block changes a set record exactly
// as one access would: only the run's first reference can block-miss,
// the frame's valid word ORs in the run's need bits, and the block ends
// most recently used.  The fold (fold) compacts each piece of at most
// recordRefs references into such runs, and every family past its
// warm-up probes the runs instead of the references (probeRuns).  The
// fold depends only on the block size, the word size and the lane
// layout, which is why the families of a bundle must share them; their
// net sizes, associativities and warm starts may differ.  A family still
// in its warm-up, or every family of a bundle with fewer than two past
// it, runs the per-reference loop (recordPiece) instead, and a lone
// family is a bundle of one that never folds.  Not safe for concurrent
// use.
type Bundle struct {
	fams []*Family
}

// NewBundle builds one family per configuration list (see New) and
// bundles them.  The families must share the block size, the word size
// and the lane layout: the sub-block sizes of their lanes, in order.
func NewBundle(families [][]cache.Config) (*Bundle, error) {
	if len(families) == 0 {
		return nil, fmt.Errorf("multipass: no families")
	}
	b := &Bundle{fams: make([]*Family, len(families))}
	for i, cfgs := range families {
		f, err := New(cfgs)
		if err != nil {
			return nil, err
		}
		if g := b.fams[0]; i > 0 && (f.blockShift != g.blockShift || f.wordShift != g.wordShift || !slices.Equal(f.refBits, g.refBits)) {
			return nil, fmt.Errorf("multipass: families of %v and %v differ in block size, word size or lane layout", cfgs[0], families[0][0])
		}
		b.fams[i] = f
	}
	return b, nil
}

// Families returns the bundle's families, in NewBundle's input order.
func (b *Bundle) Families() []*Family { return b.fams }

// AccessBatchPacked presents a chunk of word accesses, in trace.PackRefs
// form at the bundle's word size, to every family of the bundle.  The
// sweep executor hands each broadcast chunk to every bundle of the
// workload.
func (b *Bundle) AccessBatchPacked(packed []uint64) {
	if len(b.fams) == 1 {
		b.fams[0].accessRecords(packed)
		return
	}
	var sc scratch
	var rs [recordRefs]run
	for len(packed) > 0 {
		n := min(len(packed), recordRefs)
		b.accessPiece(packed[:n], &sc, &rs)
		packed = packed[n:]
	}
}

// accessPiece runs one piece of at most recordRefs references through
// every family: folded once for the families past their warm-up when
// there are at least two, and reference by reference otherwise.
func (b *Bundle) accessPiece(piece []uint64, sc *scratch, rs *[recordRefs]run) {
	past := 0
	for _, f := range b.fams {
		if !f.warming() {
			past++
		}
	}
	if past < 2 {
		for _, f := range b.fams {
			f.records(piece, sc)
		}
		return
	}
	nr, nW, nR := b.fams[0].fold(piece, rs)
	for _, f := range b.fams {
		if f.warming() {
			f.records(piece, sc)
			continue
		}
		nv, nw, writeBlockMisses := f.probeRuns(rs[:nr], sc)
		f.settle(sc, nv, nw, writeBlockMisses, uint64(len(piece)), nW, nR)
	}
}

// FlushUsage finalises every family's statistics (Family.FlushUsage).
func (b *Bundle) FlushUsage() {
	for _, f := range b.fams {
		f.FlushUsage()
	}
}

// run is one same-block run of a piece: its block number, the OR of
// its references' need bits, the bits a write needed first -- the need
// bits of each write that no earlier reference of the run needed -- and
// 1 if its first reference writes.
type run struct {
	block, need, writeFirst, write uint64
}

// fold compacts piece into same-block runs in rs, with unconditional
// stores and no jump: each reference rewrites the current run's record,
// and a reference to another block than its predecessor's opens the
// next one.  It returns the run count and the piece's write and read
// counts.  The fold depends only on f's block size, word size and lane
// layout, which a bundle's families share.
func (f *Family) fold(piece []uint64, rs *[recordRefs]run) (nr, nW, nR uint64) {
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
		r := &rs[k&(recordRefs-1)]
		r.block, r.need, r.writeFirst, r.write = ba, need, writeFirst, write
		prev = ba
		nW += w
		nR += v & 1
	}
	return k + 1, nW, nR
}

// probeRuns is recordPiece over a piece's folded runs, for a family past
// its warm-up.  A run probes and updates its set record as its first
// reference would, with the run's need bits: the later references of a
// run hit, and their need bits only OR into the valid word.  So only
// the first can block-miss, and the write misses are the bits a write
// of the run needed first that the frame did not hold before it: the
// write-first bits less the prior valid word, which is zero on a block
// miss.  A run whose first reference writes and block-misses is a write
// block miss.  It returns the victim and write record counts in sc and
// the write block misses, for settle.
func (f *Family) probeRuns(rs []run, sc *scratch) (nv, nw, writeBlockMisses uint64) {
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
		hitMask := miss - 1
		o := uint64(s.order)
		way := (h1 | h3 | (h2|h3)<<1 | o&-miss) & 3
		old := s.valid[way]
		keep := old & hitMask
		s.tags[way] = ba
		s.valid[way] = keep | r.need
		s.order = mruTab[(o<<2|way)&1023]
		sc.victims[nv&(recordRefs-1)] = old
		nv += miss
		loaded := r.writeFirst &^ keep
		sc.writes[nw&(recordRefs-1)] = loaded
		nw += flag(loaded != 0)
		writeBlockMisses += miss & r.write
	}
	return nv, nw, writeBlockMisses
}
