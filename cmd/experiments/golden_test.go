package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subcache/internal/sweep"
	"subcache/internal/telemetry"
)

// TestEngineGoldenArtifacts is the golden regression gate for the
// single-pass sweep kernel: Table 7 and Figures 1-4 -- the paper
// anchors checked by internal/sweep and internal/paperdata -- are
// regenerated with both engines at a reduced trace length, written
// through the same artifact writer cmd/experiments uses for the
// results/ directory, and every emitted file (txt, csv, svg) is
// compared byte for byte.  If the multipass kernel drifts from the
// reference simulator by even one counter anywhere in the grid, some
// cell of these artifacts changes and this test fails.  The command
// itself always runs the default engine, multipass; the test picks
// each engine through runCtx.engine.
func TestEngineGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates five artifacts twice")
	}
	const refs = 4000
	ids := []string{"table7", "fig1", "fig2", "fig3", "fig4"}

	dirs := map[sweep.Engine]string{}
	for _, eng := range []sweep.Engine{sweep.Reference, sweep.MultiPass} {
		dir := t.TempDir()
		dirs[eng] = dir
		var events bytes.Buffer
		rec := telemetry.NewRun(telemetry.Options{Sink: telemetry.NewJSONLSink(&events)})
		ctx := newRunCtx(context.Background(), refs, "")
		ctx.engine, ctx.recorder = eng, rec
		for _, id := range ids {
			var ran bool
			for _, e := range experiments {
				if e.id != id {
					continue
				}
				ran = true
				art, err := e.run(ctx)
				if err != nil {
					t.Fatalf("%s engine, %s: %v", eng, id, err)
				}
				if err := writeArtifact(dir, id, art, false); err != nil {
					t.Fatalf("%s engine, %s: %v", eng, id, err)
				}
			}
			if !ran {
				t.Fatalf("experiment %q not in registry", id)
			}
		}
		// Every sweep must have run on the engine under test.
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		starts := 0
		for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
			var ev telemetry.Event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.RunStart != nil {
				starts++
				if ev.RunStart.Engine != eng.String() {
					t.Errorf("%s engine: a sweep ran on %s", eng, ev.RunStart.Engine)
				}
			}
		}
		if starts == 0 {
			t.Errorf("%s engine: no sweep emitted run-start", eng)
		}
	}

	for _, id := range ids {
		for _, ext := range []string{".txt", ".csv", ".svg"} {
			want, errW := os.ReadFile(filepath.Join(dirs[sweep.Reference], id+ext))
			got, errG := os.ReadFile(filepath.Join(dirs[sweep.MultiPass], id+ext))
			if os.IsNotExist(errW) && os.IsNotExist(errG) {
				continue // artifact has no rendering of this kind
			}
			if errW != nil || errG != nil {
				t.Errorf("%s%s: read errors: reference=%v multipass=%v", id, ext, errW, errG)
				continue
			}
			if string(want) != string(got) {
				t.Errorf("%s%s: multipass artifact differs from reference (%d vs %d bytes)",
					id, ext, len(got), len(want))
			}
		}
	}
}

// TestHeadlineMatchesCompare: EXPERIMENTS.md's headline row quotes
// results/compare.txt -- anchors, geometric-mean miss ratio and
// ordering agreement -- rounded as the prose rounds them.  make golden
// pins compare.txt to the simulator, so the prose cannot drift from
// either.
func TestHeadlineMatchesCompare(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := os.ReadFile("../../results/compare.txt")
	if err != nil {
		t.Fatal(err)
	}
	var anchors int
	var geoMiss, agreePct float64
	for _, line := range strings.Split(string(cmp), "\n") {
		fmt.Sscanf(line, "anchors: %d", &anchors)
		fmt.Sscanf(line, "geometric mean got/paper: miss %f", &geoMiss)
		fmt.Sscanf(line, "pairwise miss-ratio ordering agreement with paper: %f%%", &agreePct)
	}
	if anchors == 0 || geoMiss == 0 || agreePct == 0 {
		t.Fatalf("results/compare.txt lacks its summary lines (anchors %d, geo-mean %v, agreement %v%%)",
			anchors, geoMiss, agreePct)
	}
	want := fmt.Sprintf("| **all** | **%d** | **%.2f×** | **%.1f%%** |", anchors, geoMiss, agreePct)
	if !strings.Contains(string(doc), want) {
		t.Errorf("EXPERIMENTS.md lacks the headline row results/compare.txt gives:\n%s", want)
	}
}
