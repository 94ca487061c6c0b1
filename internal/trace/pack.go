package trace

import "subcache/internal/addr"

// PackRefs writes the packed form of each reference into dst:
//
//	dst[i] = uint64(refs[i].Addr)>>wordShift<<2 | uint64(refs[i].Kind)
//
// The packed word carries the word index and the access kind -- all a
// word-granular simulator reads per reference -- in one load where the
// Ref struct costs two, and the packing is geometry-free: any block
// size recovers its block address with a single shift and its block
// word offset with a shift and mask.  The sweep executor therefore
// packs each chunk once and broadcasts only the packed words.  dst must
// be at least len(refs) long.
func PackRefs(dst []uint64, refs []Ref, wordShift uint) {
	_ = dst[:len(refs)]
	for i := range refs {
		dst[i] = PackRef(refs[i], wordShift)
	}
}

// PackRef is the packed form of one reference, as PackRefs writes it.
func PackRef(r Ref, wordShift uint) uint64 {
	return uint64(r.Addr)>>wordShift<<2 | uint64(r.Kind)
}

// UnpackRef decodes one PackRefs word: the word-aligned, word-sized
// access it names.  On a word-split stream (every Ref word-aligned and
// word-sized, as Splitter emits) with word indexes below 2^62 it
// returns the packed reference exactly.
func UnpackRef(v uint64, wordShift uint) Ref {
	return Ref{Addr: addr.Addr(v >> 2 << wordShift), Kind: Kind(v & 3), Size: uint8(1) << wordShift}
}

// UnpackRefs decodes packed into dst with UnpackRef.  dst must be at
// least len(packed) long.
func UnpackRefs(dst []Ref, packed []uint64, wordShift uint) {
	_ = dst[:len(packed)]
	for i, v := range packed {
		dst[i] = UnpackRef(v, wordShift)
	}
}
