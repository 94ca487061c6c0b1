package synth

import (
	"fmt"
	"io"
	"math"
	"slices"
	"testing"

	"subcache/internal/addr"
	"subcache/internal/rng"
	"subcache/internal/trace"
)

// splitterWords is the word stream by the reference route: the
// Generator through trace.NewSplitter, packed with trace.PackRefs.
func splitterWords(t *testing.T, p Profile, limit, wordSize int) []uint64 {
	t.Helper()
	g, err := NewGenerator(p, limit)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := trace.SplitAll(g, wordSize)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, len(refs))
	trace.PackRefs(out, refs, addr.Log2(uint64(wordSize)))
	return out
}

// readPackedWords drains w through ReadPacked into a dst of the given
// length, checking the fill contract: every call fills dst unless it
// reports io.EOF, and EOF is sticky.
func readPackedWords(t *testing.T, w *WordSource, dstLen int) []uint64 {
	t.Helper()
	dst := make([]uint64, dstLen)
	var out []uint64
	for {
		n, err := w.ReadPacked(dst)
		out = append(out, dst[:n]...)
		if err == io.EOF {
			if n, err := w.ReadPacked(dst); n != 0 || err != io.EOF {
				t.Fatalf("ReadPacked after EOF = (%d, %v), want (0, EOF)", n, err)
			}
			return out
		}
		if err != nil || n != dstLen {
			t.Fatalf("ReadPacked = (%d, %v), want a full %d-word fill", n, err, dstLen)
		}
	}
}

// nextWords drains w through Next, checking every access is one
// aligned word, and packs the result.
func nextWords(t *testing.T, w *WordSource, wordSize int) []uint64 {
	t.Helper()
	shift := addr.Log2(uint64(wordSize))
	var out []uint64
	for {
		r, err := w.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if int(r.Size) != wordSize || uint64(r.Addr)%uint64(wordSize) != 0 {
			t.Fatalf("Next = %v, want a %d-byte aligned word", r, wordSize)
		}
		var v [1]uint64
		trace.PackRefs(v[:], []trace.Ref{r}, shift)
		out = append(out, v[0])
	}
}

// mixedWords alternates Next with short ReadPacked fills of cycling
// lengths, so references straddle every kind of boundary between the
// two views of the one carried state.
func mixedWords(t *testing.T, w *WordSource, wordSize int) []uint64 {
	t.Helper()
	shift := addr.Log2(uint64(wordSize))
	var out []uint64
	dst := make([]uint64, 7)
	for k := 1; ; k = k%7 + 1 {
		r, err := w.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		var v [1]uint64
		trace.PackRefs(v[:], []trace.Ref{r}, shift)
		out = append(out, v[0])
		n, err := w.ReadPacked(dst[:k])
		out = append(out, dst[:n]...)
		if err == io.EOF {
			return out
		}
	}
}

// wideProfile has instructions up to 16 bytes on any byte boundary, so
// on a 2-byte path one instruction spans up to 9 words: many more than
// fit a 1- or 3-word fill.
func wideProfile() Profile {
	p := PDP11.base()
	p.Name, p.Seed = "wide", 7
	p.InstrMin, p.InstrMax, p.InstrGrain = 2, 16, 1
	return p
}

// TestWordSourceMatchesSplitter: ReadPacked, Next, and the two mixed,
// emit exactly the words of the Generator split by trace.NewSplitter
// and packed by trace.PackRefs.  The first workload of each
// architecture and a profile with wide instructions run every limit
// around the chunk size at every fill length; every other catalog
// workload runs the golden length at the executor's fill length.
func TestWordSourceMatchesSplitter(t *testing.T) {
	type tc struct {
		p        Profile
		wordSize int
		limits   []int
		dstLens  []int
	}
	full := func(p Profile, ws int) tc {
		return tc{p, ws, []int{1, 2, 8191, 8192, 8193, goldenRefs}, []int{1, 3, 1000, trace.ChunkRefs}}
	}
	cases := []tc{full(wideProfile(), 2)}
	for _, a := range AllArchs() {
		for i, p := range Workloads(a) {
			if i == 0 {
				cases = append(cases, full(p, a.WordSize()))
			} else {
				cases = append(cases, tc{p, a.WordSize(), []int{goldenRefs}, []int{trace.ChunkRefs}})
			}
		}
	}
	for _, c := range cases {
		for _, limit := range c.limits {
			name := fmt.Sprintf("%s/limit=%d", c.p.Name, limit)
			want := splitterWords(t, c.p, limit, c.wordSize)
			check := func(view string, got []uint64) {
				t.Helper()
				if !slices.Equal(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Errorf("%s %s: %d words, want %d; first difference at word %d", name, view, len(got), len(want), i)
				}
			}
			for _, dstLen := range c.dstLens {
				w, err := NewWordSource(c.p, limit, c.wordSize)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("ReadPacked(%d)", dstLen), readPackedWords(t, w, dstLen))
			}
			w, _ := NewWordSource(c.p, limit, c.wordSize)
			check("Next", nextWords(t, w, c.wordSize))
			w, _ = NewWordSource(c.p, limit, c.wordSize)
			check("mixed", mixedWords(t, w, c.wordSize))
		}
	}
}

// TestNewWordSourceRejectsBadWordSize: the word size must be a
// positive power of two.
func TestNewWordSourceRejectsBadWordSize(t *testing.T) {
	for _, ws := range []int{0, -2, 3, 6} {
		if _, err := NewWordSource(testProfile(), 10, ws); err == nil {
			t.Errorf("NewWordSource accepted word size %d", ws)
		}
	}
}

// TestModulusMatchesRemainder: the divide-free remainder equals % for
// every divisor up to 256, on every residue near 0 and near 2^64 and on
// random 64-bit values.
func TestModulusMatchesRemainder(t *testing.T) {
	r := rng.New(2019)
	for d := uint64(1); d <= 256; d++ {
		m := newModulus(d)
		check := func(h uint64) {
			if got, want := m.mod(h), h%d; got != want {
				t.Fatalf("mod(%d) by %d = %d, want %d", h, d, got, want)
			}
		}
		for k := uint64(0); k <= 2*d; k++ {
			check(k)
			check(math.MaxUint64 - k)
			check(1<<63 + k)
			check(1<<63 - 1 - k)
		}
		for i := 0; i < 2000; i++ {
			check(r.Uint64())
		}
	}
}

// TestTinyPhaseProbability: a mean phase length beyond ~9e15
// instructions (p = 1/mean below float64's 1-p resolution) still gives
// a phase of the 1<<30 cap, not a phase change on every instruction.
func TestTinyPhaseProbability(t *testing.T) {
	p := testProfile()
	p.MeanPhaseLen = 1e17
	g, err := NewGenerator(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 1<<30; g.phaseLeft != want {
		t.Errorf("phaseLeft = %d, want %d", g.phaseLeft, want)
	}
}
