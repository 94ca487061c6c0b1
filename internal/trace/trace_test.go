package trace

import (
	"errors"
	"io"
	"testing"

	"subcache/internal/addr"
)

func TestKindString(t *testing.T) {
	if IFetch.String() != "ifetch" || Read.String() != "read" || Write.String() != "write" {
		t.Errorf("kind names wrong: %s %s %s", IFetch, Read, Write)
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind string = %s", Kind(9))
	}
}

func TestKindCountable(t *testing.T) {
	if !IFetch.Countable() || !Read.Countable() {
		t.Error("ifetch and read must be countable")
	}
	if Write.Countable() {
		t.Error("writes must not be countable (paper filters write-back effects)")
	}
}

func TestSliceSource(t *testing.T) {
	refs := []Ref{
		{Addr: 0x100, Kind: IFetch, Size: 2},
		{Addr: 0x200, Kind: Read, Size: 4},
		{Addr: 0x300, Kind: Write, Size: 1},
	}
	s := NewSliceSource(refs)
	for i, want := range refs {
		got, err := s.Next()
		if err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
		if got != want {
			t.Errorf("ref %d = %v, want %v", i, got, want)
		}
	}
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("after end: err = %v, want io.EOF", err)
	}
}

func TestLimit(t *testing.T) {
	refs := make([]Ref, 10)
	for i := range refs {
		refs[i] = Ref{Addr: addr.Addr(i), Kind: Read, Size: 1}
	}
	lim := Limit(NewSliceSource(refs), 4)
	got, err := Collect(lim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("Limit(4) yielded %d refs", len(got))
	}
}

func TestLimitZero(t *testing.T) {
	lim := Limit(NewSliceSource([]Ref{{Addr: 1, Kind: Read, Size: 1}}), 0)
	if _, err := lim.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("Limit(0).Next() err = %v, want io.EOF", err)
	}
}

func TestFilterKinds(t *testing.T) {
	refs := []Ref{
		{Addr: 1, Kind: IFetch, Size: 1},
		{Addr: 2, Kind: Write, Size: 1},
		{Addr: 3, Kind: Read, Size: 1},
		{Addr: 4, Kind: Write, Size: 1},
	}
	f := FilterKinds(NewSliceSource(refs), Kind.Countable)
	got, err := Collect(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Addr != 1 || got[1].Addr != 3 {
		t.Errorf("filtered = %v", got)
	}
}

func TestCollectMax(t *testing.T) {
	refs := make([]Ref, 100)
	for i := range refs {
		refs[i] = Ref{Addr: addr.Addr(i), Kind: Read, Size: 1}
	}
	got, err := Collect(NewSliceSource(refs), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Errorf("Collect(max=7) returned %d", len(got))
	}
}

func TestFuncSource(t *testing.T) {
	n := 0
	fs := FuncSource(func() (Ref, error) {
		if n >= 3 {
			return Ref{}, io.EOF
		}
		n++
		return Ref{Addr: addr.Addr(n), Kind: IFetch, Size: 2}, nil
	})
	got, err := Collect(fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("FuncSource yielded %d refs", len(got))
	}
}

func TestRefString(t *testing.T) {
	r := Ref{Addr: 0x10, Kind: Read, Size: 4}
	if got := r.String(); got != "read 0x10/4" {
		t.Errorf("Ref.String() = %q", got)
	}
}
