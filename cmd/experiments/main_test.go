package main

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"subcache/internal/synth"
)

func TestRegistryIdsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if e.id == "" || e.title == "" || e.run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
	}
	// Every paper artifact must be present.
	for _, id := range []string{"table6", "table7", "table8",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"compare", "optsub", "ibuf", "riscii", "split", "writepol", "ctxswitch", "prefetch", "bussat", "sensitivity", "stackcache"} {
		if !seen[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

func TestGridSweepMemoized(t *testing.T) {
	ctx := newRunCtx(context.Background(), 2000, "")
	a, err := ctx.gridSweep(synth.PDP11, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.gridSweep(synth.PDP11, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("gridSweep did not memoise")
	}
	c, err := ctx.gridSweep(synth.Z8000, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("memoisation key ignores architecture")
	}
}

func TestTable8PointsMatchPaper(t *testing.T) {
	pts := table8Points()
	if len(pts) != 11 {
		t.Fatalf("Table 8 has 11 rows, got %d", len(pts))
	}
	lf := 0
	for _, p := range pts {
		if p.Fetch != 0 {
			lf++
			if p.Sub != 2 {
				t.Errorf("LF row %v must use 2-byte sub-blocks", p)
			}
		}
	}
	if lf != 3 {
		t.Errorf("Table 8 has 3 LF rows, got %d", lf)
	}
}

// TestExperimentsRunAtTinyScale runs every registry entry end to end
// on 3,000-reference traces and writes its artifact as main does,
// failing on an error or an empty text artifact.
func TestExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	dir := t.TempDir()
	ctx := newRunCtx(context.Background(), 3000, "")
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			art, err := e.run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if strings.TrimSpace(art.text) == "" {
				t.Fatal("empty text artifact")
			}
			if err := writeArtifact(dir, e.id, art, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDesignIndexMatchesRegistry keeps DESIGN.md's experiment index
// (section 4) and the registry in step: each index row ends with the
// `experiments -run` id of its artifact, every registered id has a
// row, and every row names a registered id.
func TestDesignIndexMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "\n## 4.")
	if start < 0 {
		t.Fatal("DESIGN.md has no section 4")
	}
	section, _, _ := strings.Cut(doc[start+1:], "\n## ")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		}
	}
	if len(rows) < 2 {
		t.Fatal("section 4 has no index table")
	}
	indexed := map[string]bool{}
	for _, row := range rows[2:] { // past the header and its rule
		cells := strings.Split(strings.Trim(row, "| "), " | ")
		id := strings.Trim(cells[len(cells)-1], "`")
		if id == "" || strings.ContainsAny(id, " `") {
			t.Errorf("index row names no run id: %s", row)
			continue
		}
		indexed[id] = true
	}
	registered := map[string]bool{}
	for _, e := range experiments {
		registered[e.id] = true
		if !indexed[e.id] {
			t.Errorf("experiment %q has no row in DESIGN.md's index", e.id)
		}
	}
	for id := range indexed {
		if !registered[id] {
			t.Errorf("DESIGN.md's index names %q, which is not a registered experiment", id)
		}
	}
}

// TestIndexKeepsEarlierRuns: partial runs into one directory add to its
// INDEX.md instead of truncating it, and the index gives every artifact
// the trace length it was generated at.
func TestIndexKeepsEarlierRuns(t *testing.T) {
	dir := t.TempDir()
	partial := func(refs int, ids ...string) {
		t.Helper()
		var ran []experiment
		for _, e := range experiments {
			if slices.Contains(ids, e.id) {
				if err := writeArtifact(dir, e.id, artifact{text: e.title + "\n", csv: "x\n"}, false); err != nil {
					t.Fatal(err)
				}
				ran = append(ran, e)
			}
		}
		if err := writeIndex(dir, refs, ran); err != nil {
			t.Fatal(err)
		}
	}
	index := func() string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, "INDEX.md"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// An index from before the refs column gives its length once, in
	// the header.
	legacy := "# Results index\n\nGenerated by `cmd/experiments` with 1000 references per workload.\n\n" +
		"| id | artifact | files |\n|---|---|---|\n| stackcache | Stack cache | `stackcache.txt` |\n"
	if err := os.WriteFile(filepath.Join(dir, "INDEX.md"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeArtifact(dir, "stackcache", artifact{text: "stack\n"}, false); err != nil {
		t.Fatal(err)
	}
	partial(1000, "table7")
	partial(1000, "compare")
	got := index()
	for _, id := range []string{"table7", "compare", "stackcache"} {
		if !strings.Contains(got, "| "+id+" |") {
			t.Errorf("index lacks %s after two partial runs:\n%s", id, got)
		}
	}
	if !strings.Contains(got, "with 1000 references per workload") {
		t.Errorf("index does not give the runs' one length:\n%s", got)
	}

	partial(2000, "table8")
	got = index()
	if strings.Contains(got, "`cmd/experiments` with ") {
		t.Errorf("index claims one length for runs of 1000 and 2000 refs:\n%s", got)
	}
	for id, refs := range map[string]string{"table7": "1000", "stackcache": "1000", "table8": "2000"} {
		if !strings.Contains(got, "| "+id+" |") || !strings.Contains(got, " | "+refs+" | `"+id+".txt`") {
			t.Errorf("index lacks %s at %s refs:\n%s", id, refs, got)
		}
	}
}
