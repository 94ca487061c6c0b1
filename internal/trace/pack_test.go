package trace

import (
	"reflect"
	"testing"

	"subcache/internal/addr"
)

// TestPackRoundTrip: on a word-split stream UnpackRefs inverts
// PackRefs exactly, at both of the paper's data-path widths -- the
// sweep executor broadcasts only packed words and decodes them back
// for the reference caches.
func TestPackRoundTrip(t *testing.T) {
	var raw []Ref
	for i := 0; i < 500; i++ {
		raw = append(raw, Ref{
			Addr: addr.Addr(uint64(i)*7919%65536 + uint64(i%3)),
			Kind: Kind(i % int(numKinds)),
			Size: uint8(1 << (i % 3)),
		})
	}
	for _, ws := range []int{2, 4} {
		words, err := SplitAll(NewSliceSource(raw), ws)
		if err != nil {
			t.Fatal(err)
		}
		shift := addr.Log2(uint64(ws))
		packed := make([]uint64, len(words))
		PackRefs(packed, words, shift)
		got := make([]Ref, len(words))
		UnpackRefs(got, packed, shift)
		if !reflect.DeepEqual(got, words) {
			t.Fatalf("word size %d: unpacked stream differs from the split stream", ws)
		}
		for i, v := range packed {
			if UnpackRef(v, shift) != words[i] {
				t.Fatalf("word size %d: UnpackRef(%#x) = %v, want %v", ws, v, UnpackRef(v, shift), words[i])
			}
		}
	}
}
