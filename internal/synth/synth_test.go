package synth

import (
	"strings"
	"testing"

	"subcache/internal/addr"
	"subcache/internal/trace"
)

func testProfile() Profile {
	p := PDP11.base()
	p.Name = "test"
	p.Seed = 42
	return p
}

func TestProfileValidateOK(t *testing.T) {
	if err := testProfile().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProfileValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"no name", func(p *Profile) { p.Name = "" }},
		{"zero code", func(p *Profile) { p.CodeSize = 0 }},
		{"zero data", func(p *Profile) { p.DataSize = 0 }},
		{"zero stack", func(p *Profile) { p.StackSize = 0 }},
		{"zero loci", func(p *Profile) { p.HotLoci = 0 }},
		{"zero scalars", func(p *Profile) { p.HotScalars = 0 }},
		{"zero streams", func(p *Profile) { p.Streams = 0 }},
		{"zero run len", func(p *Profile) { p.MeanRunLen = 0 }},
		{"bad instr bounds", func(p *Profile) { p.InstrMax = p.InstrMin - 1 }},
		{"bad access size", func(p *Profile) { p.AccessSize = 3 }},
		{"probability > 1", func(p *Profile) { p.PLoop = 1.5 }},
		{"negative probability", func(p *Profile) { p.WriteFrac = -0.1 }},
		{"fractions sum > 1", func(p *Profile) { p.FracStack, p.FracScalar, p.FracStream = 0.5, 0.4, 0.3 }},
		{"phase loci exceed population", func(p *Profile) { p.PhaseLoci = p.HotLoci + 1 }},
		{"phase scalars exceed population", func(p *Profile) { p.PhaseScalars = p.HotScalars + 1 }},
		{"phases without length", func(p *Profile) { p.PhaseLoci = 2; p.MeanPhaseLen = 0 }},
	}
	for _, tc := range cases {
		p := testProfile()
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestNewGeneratorRejectsInvalid(t *testing.T) {
	p := testProfile()
	p.Name = ""
	if _, err := NewGenerator(p, 10); err == nil {
		t.Error("NewGenerator accepted invalid profile")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(testProfile(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testProfile(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at ref %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSeedsProduceDifferentTraces(t *testing.T) {
	p1, p2 := testProfile(), testProfile()
	p2.Seed = 43
	a, _ := Generate(p1, 5000)
	b, _ := Generate(p2, 5000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("different seeds produced %d/%d identical refs", same, len(a))
	}
}

func TestGenerateLength(t *testing.T) {
	refs, err := Generate(testProfile(), 12345)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 12345 {
		t.Errorf("len = %d, want 12345", len(refs))
	}
}

func TestStreamComposition(t *testing.T) {
	p := testProfile()
	refs, err := Generate(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	var ifetch, read, write int
	for _, r := range refs {
		switch r.Kind {
		case trace.IFetch:
			ifetch++
			// Instruction fetches must come from the code region.
			if r.Addr < codeBase || r.Addr >= codeBase+addr.Addr(p.CodeSize)+addr.Addr(p.InstrMax) {
				t.Fatalf("ifetch outside code region: %v", r)
			}
			if int(r.Size) < p.InstrMin || int(r.Size) > p.InstrMax {
				t.Fatalf("instruction size %d outside [%d,%d]", r.Size, p.InstrMin, p.InstrMax)
			}
		case trace.Read:
			read++
		case trace.Write:
			write++
		}
		if r.Kind != trace.IFetch {
			inData := r.Addr >= dataBase && r.Addr < dataBase+addr.Addr(p.DataSize)
			inStack := r.Addr >= stackBase && r.Addr < stackBase+addr.Addr(p.StackSize)
			if !inData && !inStack {
				t.Fatalf("data ref outside data/stack regions: %v", r)
			}
		}
	}
	if ifetch == 0 || read == 0 || write == 0 {
		t.Fatalf("missing kinds: ifetch=%d read=%d write=%d", ifetch, read, write)
	}
	// Data references per instruction should be near the profile.
	gotRatio := float64(read+write) / float64(ifetch)
	if gotRatio < p.DataRefsPerInstr*0.8 || gotRatio > p.DataRefsPerInstr*1.2 {
		t.Errorf("data/instr ratio = %.3f, want ~%.3f", gotRatio, p.DataRefsPerInstr)
	}
	// Writes should be near WriteFrac of data references.
	gotWrite := float64(write) / float64(read+write)
	if gotWrite < p.WriteFrac*0.8 || gotWrite > p.WriteFrac*1.2 {
		t.Errorf("write fraction = %.3f, want ~%.3f", gotWrite, p.WriteFrac)
	}
}

func TestForwardBias(t *testing.T) {
	// Instruction fetch addresses should mostly move forward: the
	// property load-forward exploits (§4.4).
	refs, err := Generate(testProfile(), 50000)
	if err != nil {
		t.Fatal(err)
	}
	var fwd, back int
	var prev addr.Addr
	have := false
	for _, r := range refs {
		if r.Kind != trace.IFetch {
			continue
		}
		if have {
			if r.Addr > prev {
				fwd++
			} else if r.Addr < prev {
				back++
			}
		}
		prev = r.Addr
		have = true
	}
	if fwd <= 2*back {
		t.Errorf("insufficient forward bias: fwd=%d back=%d", fwd, back)
	}
}

func TestSequentialRuns(t *testing.T) {
	// Mean instruction run length at word granularity should exceed 2:
	// sequential code is the dominant pattern.
	refs, _ := Generate(testProfile(), 50000)
	_, mean, err := trace.RunLengths(trace.NewSliceSource(refs), 2)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 2 {
		t.Errorf("mean ifetch run length %.2f too short", mean)
	}
}

func TestFootprintOrderingAcrossArchs(t *testing.T) {
	// The architecture working sets must be ordered as the paper
	// characterises them: Z8000 < PDP-11 < VAX-11 < System/370.
	foot := func(a Arch) uint64 {
		p := Workloads(a)[0]
		refs, err := Generate(p, 200000)
		if err != nil {
			t.Fatal(err)
		}
		st, err := trace.Measure(trace.NewSliceSource(refs), a.WordSize())
		if err != nil {
			t.Fatal(err)
		}
		return st.FootprintLen
	}
	z, p, v, s := foot(Z8000), foot(PDP11), foot(VAX11), foot(S370)
	if !(z < p && p < v && v < s) {
		t.Errorf("footprints out of order: Z8000=%d PDP=%d VAX=%d S370=%d", z, p, v, s)
	}
}

func TestCatalogShape(t *testing.T) {
	counts := map[Arch]int{PDP11: 6, Z8000: 9, VAX11: 6, S370: 4}
	seen := map[string]bool{}
	for a, want := range counts {
		ws := Workloads(a)
		if len(ws) != want {
			t.Errorf("%s: %d workloads, want %d (paper tables 2-5)", a, len(ws), want)
		}
		for _, p := range ws {
			if seen[p.Name] {
				t.Errorf("duplicate workload name %s", p.Name)
			}
			seen[p.Name] = true
			if err := p.Validate(); err != nil {
				t.Errorf("workload %s invalid: %v", p.Name, err)
			}
			if p.Arch != a {
				t.Errorf("workload %s has arch %v, want %v", p.Name, p.Arch, a)
			}
			if Describe(p.Name) == "" {
				t.Errorf("workload %s has no description", p.Name)
			}
		}
	}
}

func TestPaperTraceNamesPresent(t *testing.T) {
	// The load-forward study (§4.4) uses the compiler traces CCP, C1,
	// C2; Table 2's PDP-11 names must exist too.
	for _, name := range []string{"CCP", "C1", "C2", "OPSYS", "PLOT", "SIMP", "TRACE", "ROFF", "ED", "SPICE", "FGO1"} {
		if _, ok := ProfileByName(name); !ok {
			t.Errorf("workload %s missing from catalog", name)
		}
	}
}

func TestProfileByNameMiss(t *testing.T) {
	if _, ok := ProfileByName("NOSUCH"); ok {
		t.Error("found nonexistent workload")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != 25 {
		t.Errorf("Names() returned %d, want 25", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("names not sorted at %d: %v", i, names)
		}
	}
}

func TestArchMethods(t *testing.T) {
	if PDP11.WordSize() != 2 || Z8000.WordSize() != 2 || VAX11.WordSize() != 4 || S370.WordSize() != 4 {
		t.Error("word sizes wrong")
	}
	if !Z8000.WarmStart() || PDP11.WarmStart() || VAX11.WarmStart() || S370.WarmStart() {
		t.Error("warm-start flags wrong")
	}
	for _, a := range AllArchs() {
		if strings.HasPrefix(a.String(), "Arch(") {
			t.Errorf("missing name for arch %d", int(a))
		}
	}
	if !strings.HasPrefix(Arch(9).String(), "Arch(") {
		t.Error("unknown arch String")
	}
}

func TestDescribeUnknown(t *testing.T) {
	if Describe("NOSUCH") != "" {
		t.Error("Describe returned text for unknown workload")
	}
}

func TestPhasesChangeWorkingSet(t *testing.T) {
	// With phases enabled, a small window of the trace should touch far
	// fewer distinct blocks than the whole trace does.
	p := testProfile()
	refs, _ := Generate(p, 200000)
	window := refs[:5000]
	wStats, _ := trace.Measure(trace.NewSliceSource(window), 2)
	tStats, _ := trace.Measure(trace.NewSliceSource(refs), 2)
	if wStats.UniqueWords*4 >= tStats.UniqueWords {
		t.Errorf("phase structure missing: window footprint %d vs total %d",
			wStats.UniqueWords, tStats.UniqueWords)
	}
}

func TestNoPhaseConfiguration(t *testing.T) {
	// Phases disabled must still generate a valid stream.
	p := testProfile()
	p.PhaseLoci, p.PhaseScalars, p.MeanPhaseLen = 0, 0, 0
	refs, err := Generate(p, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 10000 {
		t.Errorf("len = %d", len(refs))
	}
}
