package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"subcache/internal/addr"
)

func sampleRefs() []Ref {
	return []Ref{
		{Addr: 0x1000, Kind: IFetch, Size: 2},
		{Addr: 0x2004, Kind: Read, Size: 4},
		{Addr: 0x3008, Kind: Write, Size: 1},
		{Addr: 0xffffffff, Kind: Read, Size: 8},
		{Addr: 0, Kind: IFetch, Size: 2},
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	for _, r := range sampleRefs() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewTextReader(&buf), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRefs()
	if len(got) != len(want) {
		t.Fatalf("round trip count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ref %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTextReaderCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n2 1000 2\n   \n0 0x2004 4\n"
	got, err := Collect(NewTextReader(strings.NewReader(in)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d refs: %v", len(got), got)
	}
	if got[0].Kind != IFetch || got[0].Addr != 0x1000 {
		t.Errorf("ref 0 = %v", got[0])
	}
	if got[1].Kind != Read || got[1].Addr != 0x2004 {
		t.Errorf("ref 1 = %v", got[1])
	}
}

func TestTextReaderDefaultSize(t *testing.T) {
	got, err := Collect(NewTextReader(strings.NewReader("0 100\n")), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Size != 1 {
		t.Errorf("got %v", got)
	}
}

func TestTextReaderErrors(t *testing.T) {
	cases := []string{
		"9 100 2\n",       // bad label
		"x 100 2\n",       // non-numeric label
		"0 zz 2\n",        // bad address
		"0 100 0\n",       // zero size
		"0 100 999\n",     // size overflows uint8
		"0\n",             // too few fields
		"0 100 2 extra\n", // too many fields
	}
	for _, in := range cases {
		if _, err := NewTextReader(strings.NewReader(in)).Next(); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestBinRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBinWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRefs() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != uint64(len(sampleRefs())) {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewBinReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRefs()
	if len(got) != len(want) {
		t.Fatalf("round trip count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ref %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBinReaderBadMagic(t *testing.T) {
	if _, err := NewBinReader(bytes.NewReader([]byte("XXXX0123456789ab"))); err == nil {
		t.Error("expected bad-magic error")
	}
}

func TestBinReaderShortHeader(t *testing.T) {
	if _, err := NewBinReader(bytes.NewReader([]byte("SB"))); err == nil {
		t.Error("expected short-header error")
	}
}

func TestBinReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewBinWriter(&buf)
	_ = w.Write(Ref{Addr: 1, Kind: Read, Size: 1})
	_ = w.Flush()
	data := buf.Bytes()[:buf.Len()-3] // chop the last record short
	r, err := NewBinReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated record: err = %v, want corruption error", err)
	}
}

func TestBinReaderCorruptKind(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewBinWriter(&buf)
	_ = w.Write(Ref{Addr: 1, Kind: Read, Size: 1})
	_ = w.Flush()
	data := buf.Bytes()
	data[headerLen] = 99 // overwrite kind byte of first record
	r, err := NewBinReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("expected corrupt-kind error")
	}
}

// Property: any reference round-trips through both formats.
func TestRoundTripProperty(t *testing.T) {
	f := func(a uint64, kindRaw uint8, size uint8) bool {
		if size == 0 {
			size = 1
		}
		r := Ref{Addr: addr.Addr(a), Kind: Kind(kindRaw % 3), Size: size}

		var tb bytes.Buffer
		tw := NewTextWriter(&tb)
		if tw.Write(r) != nil || tw.Flush() != nil {
			return false
		}
		tGot, err := NewTextReader(&tb).Next()
		if err != nil || tGot != r {
			return false
		}

		var bb bytes.Buffer
		bw, err := NewBinWriter(&bb)
		if err != nil || bw.Write(r) != nil || bw.Flush() != nil {
			return false
		}
		br, err := NewBinReader(&bb)
		if err != nil {
			return false
		}
		bGot, err := br.Next()
		return err == nil && bGot == r
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Error(err)
	}
}
