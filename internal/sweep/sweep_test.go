package sweep

import (
	"strings"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/synth"
)

func TestGridRespectsTable1(t *testing.T) {
	pts := Grid([]int{64, 256, 1024}, 2)
	if len(pts) == 0 {
		t.Fatal("empty grid")
	}
	seen := map[Point]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Errorf("duplicate point %v", p)
		}
		seen[p] = true
		if p.Block < 2 || p.Block > 64 {
			t.Errorf("%v: block out of Table 1 range", p)
		}
		if p.Sub < 2 || p.Sub > 32 {
			t.Errorf("%v: sub-block out of Table 1 range", p)
		}
		if p.Sub > p.Block || p.Block > p.Net {
			t.Errorf("%v: inconsistent geometry", p)
		}
		if p.Block == 64 && p.Sub == 64 {
			t.Errorf("%v: 64,64 is not in Table 1", p)
		}
	}
	// Net 1024 on a 2-byte-word machine has exactly the 18 organisations
	// of Table 7's 1024-byte section.
	var n1024 int
	for _, p := range pts {
		if p.Net == 1024 {
			n1024++
		}
	}
	if n1024 != 19 {
		t.Errorf("1024-byte grid has %d points, want 19 (Table 7)", n1024)
	}
}

func TestGridWordSizeFloor(t *testing.T) {
	// A 4-byte-word machine has no x,2 points.
	for _, p := range Grid([]int{256}, 4) {
		if p.Sub < 4 {
			t.Errorf("point %v has sub-block below the word size", p)
		}
	}
}

func TestPointString(t *testing.T) {
	p := Point{Net: 256, Block: 16, Sub: 2}
	if p.String() != "256:16,2" {
		t.Errorf("String = %q", p.String())
	}
	p.Fetch = cache.LoadForward
	if p.String() != "256:16,2,LF" {
		t.Errorf("String = %q", p.String())
	}
}

func TestPointConfig(t *testing.T) {
	cfg := Point{Net: 1024, Block: 16, Sub: 8}.Config(synth.PDP11)
	if cfg.Assoc != 4 || cfg.WordSize != 2 || cfg.WarmStart {
		t.Errorf("config = %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	// Tiny cache: associativity capped at the frame count.
	tiny := Point{Net: 64, Block: 32, Sub: 8}.Config(synth.VAX11)
	if tiny.Assoc != 2 {
		t.Errorf("tiny assoc = %d, want 2", tiny.Assoc)
	}
	// Z8000 runs warm-start.
	if !(Point{Net: 64, Block: 8, Sub: 2}).Config(synth.Z8000).WarmStart {
		t.Error("Z8000 config not warm-start")
	}
}

func TestRunSmallSweep(t *testing.T) {
	pts := []Point{
		{Net: 256, Block: 16, Sub: 8},
		{Net: 256, Block: 16, Sub: 2},
		{Net: 1024, Block: 16, Sub: 8},
	}
	res, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != len(pts) {
		t.Fatalf("got %d summaries", len(res.Summaries))
	}
	for _, p := range pts {
		runs := res.Runs[p]
		if len(runs) != 6 { // six PDP-11 workloads
			t.Errorf("%v: %d runs, want 6", p, len(runs))
		}
	}
	// Structural expectations: smaller sub-block -> higher miss, lower
	// traffic; bigger cache -> lower miss.
	s168 := res.Summaries[pts[0]]
	s162 := res.Summaries[pts[1]]
	big := res.Summaries[pts[2]]
	if !(s162.Miss > s168.Miss) {
		t.Errorf("sub-block shrink did not raise miss: %.4f vs %.4f", s162.Miss, s168.Miss)
	}
	if !(s162.Traffic < s168.Traffic) {
		t.Errorf("sub-block shrink did not cut traffic: %.4f vs %.4f", s162.Traffic, s168.Traffic)
	}
	if !(big.Miss < s168.Miss) {
		t.Errorf("bigger cache did not cut miss: %.4f vs %.4f", big.Miss, s168.Miss)
	}
}

func TestRunWorkloadSubset(t *testing.T) {
	pts := []Point{{Net: 256, Block: 16, Sub: 2, Fetch: cache.LoadForward}}
	res, err := Run(Request{
		Arch: synth.Z8000, Points: pts, Refs: 20000,
		Workloads: []string{"CCP", "C1", "C2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Runs[pts[0]]); got != 3 {
		t.Errorf("%d runs, want 3", got)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	_, err := Run(Request{
		Arch: synth.Z8000, Points: []Point{{Net: 64, Block: 8, Sub: 2}},
		Refs: 100, Workloads: []string{"NOSUCH"},
	})
	if err == nil || !strings.Contains(err.Error(), "NOSUCH") {
		t.Errorf("err = %v", err)
	}
}

func TestRunValidatesRequest(t *testing.T) {
	pt := []Point{{Net: 64, Block: 8, Sub: 2}}
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"zero refs", Request{Arch: synth.PDP11, Refs: 0, Points: pt}},
		{"empty points", Request{Arch: synth.PDP11, Refs: 100}},
		{"negative shard count", Request{Arch: synth.PDP11, Refs: 100, Shards: -1, Points: pt}},
		{"an Override that changes the word size", Request{Arch: synth.PDP11, Refs: 100,
			Points:   []Point{{Net: 64, Block: 8, Sub: 4}},
			Override: func(c *cache.Config) { c.WordSize = 4 }}},
		// The stack-distance kernel is kernelbench's comparison, not a
		// sweep engine.
		{"the stack-distance engine", Request{Arch: synth.PDP11, Refs: 100, Points: pt, Engine: StackDist}},
		// A repeat would simulate OPSYS twice and count it twice in the
		// unweighted average.
		{"a repeated workload", Request{Arch: synth.PDP11, Refs: 100, Points: pt,
			Workloads: []string{"OPSYS", "OPSYS", "PLOT"}}},
		// A repeated point would be simulated twice, as an extra lane,
		// complete once and fingerprint the same results differently.
		{"a repeated point", Request{Arch: synth.PDP11, Refs: 100,
			Points: []Point{pt[0], {Net: 64, Block: 8, Sub: 4}, pt[0]}}},
		{"a net size's grid listed twice", Request{Arch: synth.PDP11, Refs: 100,
			Points: Grid([]int{64, 64}, 2)}},
	} {
		if _, err := Run(tc.req); err == nil {
			t.Errorf("accepted %s", tc.name)
		}
	}
	_, err := Run(Request{Arch: synth.PDP11, Refs: 100, Points: []Point{pt[0], pt[0]}})
	if err == nil || !strings.Contains(err.Error(), pt[0].String()+" named twice") {
		t.Errorf("repeated point: got %v, want an error naming %v", err, pt[0])
	}
	_, err = Run(Request{Arch: synth.PDP11, Refs: 100, Points: pt, Engine: StackDist})
	if err == nil || !strings.Contains(err.Error(), "stackdist") {
		t.Errorf("Engine StackDist: got %v, want an error naming stackdist", err)
	}
}

func TestRunOverride(t *testing.T) {
	pts := []Point{{Net: 256, Block: 8, Sub: 8}}
	lru, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 20000,
		Workloads: []string{"ED"}})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 20000,
		Workloads: []string{"ED"},
		Override: func(c *cache.Config) {
			c.Replacement = cache.Random
			c.RandomSeed = 7
		}})
	if err != nil {
		t.Fatal(err)
	}
	// Different policies should give (at least slightly) different miss
	// counts on a nontrivial trace.
	if lru.Summaries[pts[0]].Miss == rnd.Summaries[pts[0]].Miss {
		t.Error("override had no effect")
	}
}

func TestResultPointsSorted(t *testing.T) {
	pts := []Point{
		{Net: 1024, Block: 16, Sub: 8},
		{Net: 64, Block: 8, Sub: 2},
		{Net: 64, Block: 16, Sub: 8},
		{Net: 64, Block: 16, Sub: 2},
	}
	res, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 5000, Workloads: []string{"ED"}})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Points()
	want := []Point{
		{Net: 64, Block: 16, Sub: 8},
		{Net: 64, Block: 16, Sub: 2},
		{Net: 64, Block: 8, Sub: 2},
		{Net: 1024, Block: 16, Sub: 8},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	pts := []Point{{Net: 256, Block: 16, Sub: 4}}
	req := Request{Arch: synth.VAX11, Points: pts, Refs: 20000, Workloads: []string{"QSORT"}}
	a, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summaries[pts[0]] != b.Summaries[pts[0]] {
		t.Error("sweep not deterministic")
	}
}

func TestRunOne(t *testing.T) {
	prof, _ := synth.ProfileByName("ED")
	cfg := cache.Config{NetSize: 256, BlockSize: 16, SubBlockSize: 8, Assoc: 4, WordSize: 2}
	run, err := RunOne(prof, cfg, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if run.Accesses == 0 || run.Miss <= 0 || run.Miss >= 1 {
		t.Errorf("run = %+v", run)
	}
	if _, err := RunOne(prof, cache.Config{}, 10); err == nil {
		t.Error("RunOne accepted invalid config")
	}
}

func TestRunOverrideInvalidConfig(t *testing.T) {
	_, err := Run(Request{
		Arch: synth.PDP11, Points: []Point{{Net: 64, Block: 8, Sub: 2}},
		Refs: 1000, Workloads: []string{"ED"}, Engine: Reference,
		Override: func(c *cache.Config) { c.Assoc = 999 },
	})
	if err == nil {
		t.Error("sweep accepted an override that invalidates the config")
	}
}

func TestRunParallelismOne(t *testing.T) {
	pts := []Point{{Net: 64, Block: 8, Sub: 4}, {Net: 256, Block: 8, Sub: 4}}
	seq, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 5000,
		Workloads: []string{"ED"}, Parallelism: 1, Engine: Reference})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 5000,
		Workloads: []string{"ED"}, Parallelism: 8, Engine: Reference})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if seq.Summaries[p] != par.Summaries[p] {
			t.Errorf("parallelism changed results at %v", p)
		}
	}
}
