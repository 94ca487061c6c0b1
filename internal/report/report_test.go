package report

import (
	"strings"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/sweep"
	"subcache/internal/synth"
)

func TestTableString(t *testing.T) {
	tb := NewTable("Title", "a", "bb", "ccc")
	tb.Add("1", "2", "3")
	tb.Add("10", "20")
	s := tb.String()
	if !strings.Contains(s, "Title") || !strings.Contains(s, "bb") {
		t.Errorf("table output missing pieces:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), s)
	}
}

func TestTableAddPanicsOnWideRow(t *testing.T) {
	tb := NewTable("", "one")
	defer func() {
		if recover() == nil {
			t.Error("wide row did not panic")
		}
	}()
	tb.Add("a", "b")
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "x", "y")
	tb.Add(`va"l`, "a,b")
	csv := tb.CSV()
	want := "x,y\n\"va\"\"l\",\"a,b\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestFigureCSVAndASCII(t *testing.T) {
	fig := &Figure{
		Title: "T", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "s1", Points: []XY{{0.1, 0.5, "p1"}, {0.2, 0.3, "p2"}}},
			{Name: "s2", Points: []XY{{0.4, 0.1, "p3"}}},
		},
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "s1,p1,0.100000,0.500000") {
		t.Errorf("CSV missing row:\n%s", csv)
	}
	art := fig.ASCII(40, 10)
	if !strings.Contains(art, "a = s1") || !strings.Contains(art, "b = s2") {
		t.Errorf("ASCII legend missing:\n%s", art)
	}
	if !strings.Contains(art, "a") {
		t.Errorf("no markers plotted:\n%s", art)
	}
}

func TestFigureASCIIEmpty(t *testing.T) {
	fig := &Figure{Title: "E"}
	if !strings.Contains(fig.ASCII(40, 10), "no data") {
		t.Error("empty figure should say so")
	}
}

func TestFigureASCIIDegenerate(t *testing.T) {
	// A single point (zero x/y range) must not divide by zero.
	fig := &Figure{Title: "D", Series: []Series{{Name: "s", Points: []XY{{0.5, 0.5, ""}}}}}
	if fig.ASCII(30, 8) == "" {
		t.Error("degenerate figure rendered empty")
	}
}

func smallResult(t *testing.T, arch synth.Arch, pts []sweep.Point) *sweep.Result {
	t.Helper()
	res, err := sweep.Run(sweep.Request{
		Arch: arch, Points: pts, Refs: 5000,
		Workloads: []string{synth.Workloads(arch)[0].Name},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMissVsTraffic(t *testing.T) {
	pts := []sweep.Point{
		{Net: 256, Block: 16, Sub: 16},
		{Net: 256, Block: 16, Sub: 8},
		{Net: 256, Block: 16, Sub: 2},
		{Net: 256, Block: 8, Sub: 8},
		{Net: 256, Block: 8, Sub: 2},
	}
	res := smallResult(t, synth.PDP11, pts)
	fig := MissVsTraffic(res, []int{256}, false, "test fig")
	if len(fig.Series) == 0 {
		t.Fatal("no series")
	}
	names := map[string]int{}
	for _, s := range fig.Series {
		names[s.Name] = len(s.Points)
	}
	if names["net256 b16"] != 3 {
		t.Errorf("b16 line has %d points, want 3 (%v)", names["net256 b16"], names)
	}
	if names["net256 s8"] != 2 {
		t.Errorf("s8 line has %d points, want 2 (%v)", names["net256 s8"], names)
	}
	// Scaled variant must use the nibble x-coordinates.
	scaled := MissVsTraffic(res, []int{256}, true, "scaled")
	if !strings.Contains(scaled.XLabel, "nibble") {
		t.Error("scaled figure not labelled")
	}
}

func TestTable7Rendering(t *testing.T) {
	pts := []sweep.Point{{Net: 64, Block: 8, Sub: 8}, {Net: 64, Block: 8, Sub: 2}}
	res := map[synth.Arch]*sweep.Result{
		synth.PDP11: smallResult(t, synth.PDP11, pts),
		// VAX word size 4 excludes the 8,2 point.
		synth.VAX11: smallResult(t, synth.VAX11, pts[:1]),
	}
	tb := Table7(res)
	s := tb.String()
	if !strings.Contains(s, "PDP-11 miss") || !strings.Contains(s, "VAX-11 miss") {
		t.Errorf("missing architecture columns:\n%s", s)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("got %d rows, want 2:\n%s", len(tb.Rows), s)
	}
	// Gross size column must reproduce Table 7's 94 bytes for 64B 8,8.
	if tb.Rows[0][1] != "94" {
		t.Errorf("gross cell = %q, want 94", tb.Rows[0][1])
	}
	// The 8,2 row must leave the VAX columns blank.
	last := tb.Rows[1]
	if last[len(last)-1] != "" {
		t.Errorf("VAX cell for 8,2 should be blank, got %q", last[len(last)-1])
	}
}

func TestTable8Rendering(t *testing.T) {
	pts := []sweep.Point{
		{Net: 256, Block: 16, Sub: 16},
		{Net: 256, Block: 16, Sub: 2, Fetch: cache.LoadForward},
		{Net: 256, Block: 16, Sub: 2},
	}
	res, err := sweep.Run(sweep.Request{
		Arch: synth.Z8000, Points: pts, Refs: 10000,
		Workloads: []string{"CCP", "C1", "C2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb := Table8(res)
	s := tb.String()
	if !strings.Contains(s, "load-forward") {
		t.Errorf("LF row missing:\n%s", s)
	}
	if len(tb.Rows) != 3 {
		t.Errorf("got %d rows:\n%s", len(tb.Rows), s)
	}
}
