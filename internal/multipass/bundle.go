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
// The fold (Family.fold) depends only on the block size, the word size
// and the lane layout, which is why the families of a bundle must share
// them; their net sizes, associativities and warm starts may differ.
// Every family past its warm-up probes the bundle's one fold of each
// piece of at most recordRefs references, even when it is the only one
// past it.  A family still in its warm-up folds the piece itself, cut
// where its warm-up can end (Family.records).  A lone family is a
// bundle of one.  Not safe for concurrent use.
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
	var sc scratch
	for len(packed) > 0 {
		n := min(len(packed), recordRefs)
		b.accessPiece(packed[:n], &sc)
		packed = packed[n:]
	}
}

// accessPiece runs one piece of at most recordRefs references through
// every family.  The families past their warm-up probe one fold of the
// piece, made for the first of them; only then does each warming family
// fold the piece again into the same buffers, cut where its warm-up can
// end (Family.records).
func (b *Bundle) accessPiece(piece []uint64, sc *scratch) {
	var nr, nW, nR uint64
	folded := false
	for _, f := range b.fams {
		if f.warming() {
			continue
		}
		if !folded {
			nr, nW, nR = f.fold(piece, sc)
			folded = true
		}
		nv, nw, writeBlockMisses := f.probeRuns(sc.runs[:nr], sc)
		f.settle(sc, nv, nw, writeBlockMisses, uint64(len(piece)), nW, nR)
	}
	for _, f := range b.fams {
		if f.warming() {
			f.records(piece, sc)
		}
	}
}

// FlushUsage finalises every family's statistics (Family.FlushUsage).
func (b *Bundle) FlushUsage() {
	for _, f := range b.fams {
		f.FlushUsage()
	}
}
