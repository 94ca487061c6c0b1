package trace

import (
	"fmt"
	"io"

	"subcache/internal/addr"
)

// Stats summarises a trace: reference counts per kind, the word-level
// footprint (unique words touched, which bounds any cache's cold-miss
// count) and the address range.  The paper characterises its workloads
// informally ("the System/370 programs are large, using hundreds of
// kilobytes of storage"); Stats makes the same characterisation of the
// synthetic workloads checkable in tests.
type Stats struct {
	WordSize int

	Total     uint64
	ByKind    [3]uint64
	Countable uint64 // IFetch + Read accesses

	UniqueWords  uint64
	FootprintLen uint64 // UniqueWords * WordSize, in bytes

	MinAddr addr.Addr
	MaxAddr addr.Addr
}

// Measure drains src through a data-path splitter of the given word
// size and returns the resulting statistics.
func Measure(src Source, wordSize int) (Stats, error) {
	st := Stats{WordSize: wordSize, MinAddr: ^addr.Addr(0)}
	seen := make(map[addr.Addr]struct{})
	sp := NewSplitter(src, wordSize)
	for {
		r, err := sp.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, err
		}
		st.Total++
		st.ByKind[r.Kind]++
		if r.Kind.Countable() {
			st.Countable++
		}
		if _, ok := seen[r.Addr]; !ok {
			seen[r.Addr] = struct{}{}
			st.UniqueWords++
		}
		if r.Addr < st.MinAddr {
			st.MinAddr = r.Addr
		}
		if r.Addr > st.MaxAddr {
			st.MaxAddr = r.Addr
		}
	}
	st.FootprintLen = st.UniqueWords * uint64(wordSize)
	if st.Total == 0 {
		st.MinAddr = 0
	}
	return st, nil
}

// String renders the statistics for human inspection.
func (s Stats) String() string {
	return fmt.Sprintf(
		"refs=%d (ifetch=%d read=%d write=%d countable=%d) footprint=%dB words=%d range=[%s,%s]",
		s.Total, s.ByKind[IFetch], s.ByKind[Read], s.ByKind[Write], s.Countable,
		s.FootprintLen, s.UniqueWords, s.MinAddr, s.MaxAddr)
}

// RunLengths measures the distribution of sequential-forward run lengths
// in the instruction-fetch stream at word granularity: the number of
// consecutive fetches r where addr(r+1) = addr(r) + wordSize.  The paper
// argues program references "exhibit a forward bias" (§4.4); this
// histogram quantifies that bias for a workload.
func RunLengths(src Source, wordSize int) (hist map[int]int, meanRun float64, err error) {
	sp := NewSplitter(FilterKinds(src, func(k Kind) bool { return k == IFetch }), wordSize)
	hist = make(map[int]int)
	var prev addr.Addr
	have := false
	run := 1
	var runs, totalLen int
	flush := func() {
		hist[run]++
		runs++
		totalLen += run
	}
	for {
		r, e := sp.Next()
		if e == io.EOF {
			break
		}
		if e != nil {
			return nil, 0, e
		}
		if have && r.Addr == prev+addr.Addr(wordSize) {
			run++
		} else if have {
			flush()
			run = 1
		}
		prev = r.Addr
		have = true
	}
	if have {
		flush()
	}
	if runs > 0 {
		meanRun = float64(totalLen) / float64(runs)
	}
	return hist, meanRun, nil
}
