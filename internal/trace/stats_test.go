package trace

import (
	"testing"

	"subcache/internal/addr"
)

func TestMeasureBasic(t *testing.T) {
	refs := []Ref{
		{Addr: 0x100, Kind: IFetch, Size: 2},
		{Addr: 0x100, Kind: IFetch, Size: 2}, // repeat: no new unique word
		{Addr: 0x104, Kind: Read, Size: 4},   // 2 words on 2-byte path
		{Addr: 0x200, Kind: Write, Size: 2},
	}
	st, err := Measure(NewSliceSource(refs), 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 5 {
		t.Errorf("Total = %d, want 5", st.Total)
	}
	if st.ByKind[IFetch] != 2 || st.ByKind[Read] != 2 || st.ByKind[Write] != 1 {
		t.Errorf("ByKind = %v", st.ByKind)
	}
	if st.Countable != 4 {
		t.Errorf("Countable = %d, want 4", st.Countable)
	}
	if st.UniqueWords != 4 { // 0x100, 0x104, 0x106, 0x200
		t.Errorf("UniqueWords = %d, want 4", st.UniqueWords)
	}
	if st.FootprintLen != 8 {
		t.Errorf("FootprintLen = %d, want 8", st.FootprintLen)
	}
	if st.MinAddr != 0x100 || st.MaxAddr != 0x200 {
		t.Errorf("range [%v,%v]", st.MinAddr, st.MaxAddr)
	}
}

func TestMeasureEmpty(t *testing.T) {
	st, err := Measure(NewSliceSource(nil), 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 0 || st.UniqueWords != 0 || st.MinAddr != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	st, _ := Measure(NewSliceSource([]Ref{{Addr: 4, Kind: Read, Size: 4}}), 4)
	if s := st.String(); s == "" {
		t.Error("String() empty")
	}
}

func TestRunLengthsSequential(t *testing.T) {
	// Ten perfectly sequential 2-byte fetches: one run of 10.
	var refs []Ref
	for i := 0; i < 10; i++ {
		refs = append(refs, Ref{Addr: addr.Addr(0x100 + 2*i), Kind: IFetch, Size: 2})
	}
	hist, mean, err := RunLengths(NewSliceSource(refs), 2)
	if err != nil {
		t.Fatal(err)
	}
	if hist[10] != 1 || len(hist) != 1 {
		t.Errorf("hist = %v", hist)
	}
	if mean != 10 {
		t.Errorf("mean = %g, want 10", mean)
	}
}

func TestRunLengthsBranches(t *testing.T) {
	// Two runs of 3 separated by a branch, data refs ignored.
	refs := []Ref{
		{Addr: 0x100, Kind: IFetch, Size: 2},
		{Addr: 0x102, Kind: IFetch, Size: 2},
		{Addr: 0x104, Kind: IFetch, Size: 2},
		{Addr: 0x500, Kind: Read, Size: 2}, // ignored
		{Addr: 0x200, Kind: IFetch, Size: 2},
		{Addr: 0x202, Kind: IFetch, Size: 2},
		{Addr: 0x204, Kind: IFetch, Size: 2},
	}
	hist, mean, err := RunLengths(NewSliceSource(refs), 2)
	if err != nil {
		t.Fatal(err)
	}
	if hist[3] != 2 {
		t.Errorf("hist = %v, want two runs of 3", hist)
	}
	if mean != 3 {
		t.Errorf("mean = %g, want 3", mean)
	}
}

func TestRunLengthsEmpty(t *testing.T) {
	hist, mean, err := RunLengths(NewSliceSource(nil), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 0 || mean != 0 {
		t.Errorf("hist=%v mean=%g", hist, mean)
	}
}
