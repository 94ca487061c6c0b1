package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/metrics"
	"subcache/internal/synth"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "sweep.ckpt")
}

// TestJournalRoundTrip: recorded entries survive a close/reopen and
// load back verbatim.
func TestJournalRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	pts := []Point{{Net: 64, Block: 8, Sub: 2}, {Net: 64, Block: 8, Sub: 4}}
	runs := map[Point]metrics.Run{
		pts[0]: {Trace: "ED", Miss: 0.25, Traffic: 1.5},
		pts[1]: {Trace: "ED", Miss: 0.125, Traffic: 0.75},
	}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("fp1", "ED", pts, runs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Skipped != 0 {
		t.Errorf("Skipped = %d, want 0", j2.Skipped)
	}
	got, ok := j2.Lookup("fp1", "ED")
	if !ok {
		t.Fatal("recorded entry missing after reopen")
	}
	if !reflect.DeepEqual(got, runs) {
		t.Errorf("round trip changed runs\n got:  %v\n want: %v", got, runs)
	}
	if _, ok := j2.Lookup("fp2", "ED"); ok {
		t.Error("lookup matched a foreign fingerprint")
	}
	if _, ok := j2.Lookup("fp1", "CCP"); ok {
		t.Error("lookup matched an unrecorded workload")
	}
}

// TestJournalRejectsCorruption: garbage lines, torn tails and tampered
// payloads are skipped on load -- never half-trusted -- while valid
// entries around them survive.
func TestJournalRejectsCorruption(t *testing.T) {
	path := tmpJournal(t)
	pts := []Point{{Net: 64, Block: 8, Sub: 2}}
	runs := map[Point]metrics.Run{pts[0]: {Trace: "ED", Miss: 0.5}}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("fp", "ED", pts, runs); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("fp", "CCP", pts, runs); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the second entry's payload (flip a digit inside the
	// miss ratio) without touching its checksum, inject a garbage line,
	// and tear the tail off a duplicated first line.
	lines := splitLines(t, data)
	tampered := append([]byte(nil), lines[0]...)
	tampered = append(tampered, '\n')
	bad := []byte(nil)
	bad = append(bad, lines[1]...)
	for i := range bad {
		if bad[i] == '5' {
			bad[i] = '6'
			break
		}
	}
	tampered = append(tampered, bad...)
	tampered = append(tampered, '\n')
	tampered = append(tampered, []byte("{not json at all\n")...)
	tampered = append(tampered, lines[0][:len(lines[0])/2]...) // torn tail
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Skipped != 3 {
		t.Errorf("Skipped = %d, want 3 (tampered, garbage, torn)", j2.Skipped)
	}
	if _, ok := j2.Lookup("fp", "ED"); !ok {
		t.Error("valid entry lost to surrounding corruption")
	}
	if _, ok := j2.Lookup("fp", "CCP"); ok {
		t.Error("tampered entry was trusted")
	}
}

// TestJournalTornTailThenRecord: a crash mid-append leaves a last line
// with no newline; an entry recorded after reopening such a journal
// must survive the next load, and only the torn line is skipped.
func TestJournalTornTailThenRecord(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte(`{"v":1,"fp":"x","workl`), 0o644); err != nil {
		t.Fatal(err)
	}
	pts := []Point{{Net: 64, Block: 8, Sub: 2}}
	runs := map[Point]metrics.Run{pts[0]: {Trace: "ED", Miss: 0.5}}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("fp", "ED", pts, runs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got, ok := j2.Lookup("fp", "ED"); !ok || !reflect.DeepEqual(got, runs) {
		t.Errorf("entry recorded after a torn tail: got %v, %v; want %v (Skipped %d)", got, ok, runs, j2.Skipped)
	}
	if j2.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1 (the torn line)", j2.Skipped)
	}
}

// FuzzOpenJournal: whatever a journal file holds before it is opened,
// one Record and a reopen must find the new entry and every entry the
// first open verified.  The seeds are an empty file,
// TestJournalRoundTrip's entry (whole, without its newline, and
// followed by its own first half), a torn line and a garbage line.
func FuzzOpenJournal(f *testing.F) {
	pts := []Point{{Net: 64, Block: 8, Sub: 2}, {Net: 64, Block: 8, Sub: 4}}
	runs := map[Point]metrics.Run{
		pts[0]: {Trace: "ED", Miss: 0.25, Traffic: 1.5},
		pts[1]: {Trace: "ED", Miss: 0.125, Traffic: 0.75},
	}
	seedPath := filepath.Join(f.TempDir(), "seed.ckpt")
	j, err := OpenJournal(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Record("fp1", "ED", pts, runs); err != nil {
		f.Fatal(err)
	}
	j.Close()
	entry, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(entry)
	f.Add(entry[:len(entry)-1])
	f.Add(append(append([]byte(nil), entry...), entry[:len(entry)/2]...))
	f.Add([]byte(`{"v":1,"fp":"x","workl`))
	f.Add([]byte("{not json at all\n"))

	f.Fuzz(func(t *testing.T, prior []byte) {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		if err := os.WriteFile(path, prior, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		verified := make(map[string]journalEntry, len(j.done))
		for k, e := range j.done {
			verified[k] = e
		}
		if err := j.Record("fuzz", "CCP", pts, runs); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		if got, ok := j2.Lookup("fuzz", "CCP"); !ok || !reflect.DeepEqual(got, runs) {
			t.Fatalf("new entry lost on reopen: got %v, %v (Skipped %d)", got, ok, j2.Skipped)
		}
		for k, e := range verified {
			if k == journalKey("fuzz", "CCP") {
				continue
			}
			if got, ok := j2.done[k]; !ok || !reflect.DeepEqual(got, e) {
				t.Errorf("entry %s/%s verified on open but lost on reopen", e.FP, e.Workload)
			}
		}
	})
}

func splitLines(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			lines = append(lines, data[start:i])
			start = i + 1
		}
	}
	if len(lines) < 2 {
		t.Fatalf("journal has %d lines, want at least 2", len(lines))
	}
	return lines
}

// marshalRuns renders a result's runs deterministically for the
// byte-for-byte comparisons below.
func marshalRuns(t *testing.T, res *Result) []byte {
	t.Helper()
	type pointRuns struct {
		Point Point         `json:"point"`
		Runs  []metrics.Run `json:"runs"`
	}
	var all []pointRuns
	for _, p := range res.Points() {
		all = append(all, pointRuns{Point: p, Runs: res.Runs[p]})
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointResumeByteForByte is the acceptance scenario: a
// checkpointed sweep killed mid-run (cancelled after its first
// workload is journaled) and then restarted reproduces the
// uninterrupted run's results byte for byte on a Table 7 grid.
func TestCheckpointResumeByteForByte(t *testing.T) {
	pts := Grid([]int{64, 256}, 2)
	base := Request{Arch: synth.PDP11, Points: pts, Refs: 20000,
		Engine: MultiPass, Shards: 1, Parallelism: 1}

	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := marshalRuns(t, want)

	// Phase 1: same request, checkpointed, killed once the second
	// workload starts -- with Parallelism 1 the workloads run
	// sequentially, so the first is already journaled.
	path := tmpJournal(t)
	profiles := synth.Workloads(synth.PDP11)
	if len(profiles) < 2 {
		t.Skip("suite too small to interrupt")
	}
	second := profiles[1].Name
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := base
	req.Checkpoint = path
	req.Hooks = &Hooks{BeforeUnit: func(w string, _ int, _ []Point, _ int) {
		if w == second {
			cancel()
		}
	}}
	if _, err := RunContext(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: err = %v, want context.Canceled", err)
	}

	// Phase 2: restart.  The journaled workload must be restored, the
	// rest re-simulated, and the merged result identical to the
	// uninterrupted run.
	req = base
	req.Checkpoint = path
	got, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Resumed < 1 {
		t.Errorf("Resumed = %d, want at least 1", got.Resumed)
	}
	if gotBytes := marshalRuns(t, got); string(gotBytes) != string(wantBytes) {
		t.Fatal("resumed sweep differs from the uninterrupted run")
	}
	if !reflect.DeepEqual(got.Summaries, want.Summaries) {
		t.Error("resumed summaries differ")
	}
	if want.TracePasses-got.TracePasses != got.Resumed {
		t.Errorf("restored workloads still cost passes: %d vs %d with %d resumed",
			got.TracePasses, want.TracePasses, got.Resumed)
	}
}

// TestCheckpointAcrossStrategies: the fingerprint deliberately excludes
// engine, shards, parallelism and the workload subset, so a journal
// written by a partial-suite multipass run seeds a full-suite reference
// run at NumCPU shards -- and the merged results are identical to an
// uninterrupted sweep.  Every architecture checkpoints its Table 7 grid
// into the one journal, so the fingerprint must also keep them apart.
func TestCheckpointAcrossStrategies(t *testing.T) {
	path := tmpJournal(t)
	for _, a := range synth.AllArchs() {
		base := Request{Arch: a, Points: Grid([]int{64, 256, 1024}, a.WordSize()),
			Refs: 15000, Engine: MultiPass}
		want, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}

		suite := synth.Workloads(a)
		half := max(len(suite)/2, 1)
		partial := base
		partial.Checkpoint = path
		for _, p := range suite[:half] {
			partial.Workloads = append(partial.Workloads, p.Name)
		}
		first, err := Run(partial)
		if err != nil {
			t.Fatal(err)
		}
		if first.Resumed != 0 {
			t.Fatalf("%v: fresh run resumed %d workloads", a, first.Resumed)
		}

		resumed := base
		resumed.Checkpoint = path
		resumed.Engine = Reference
		resumed.Shards = runtime.NumCPU()
		got, err := Run(resumed)
		if err != nil {
			t.Fatal(err)
		}
		if got.Resumed != half {
			t.Errorf("%v: Resumed = %d, want %d", a, got.Resumed, half)
		}
		if !reflect.DeepEqual(got.Runs, want.Runs) || !reflect.DeepEqual(got.Summaries, want.Summaries) {
			t.Errorf("%v: cross-strategy resume differs from an uninterrupted sweep", a)
		}
	}
}

// TestCheckpointFingerprintIsolation: entries only resume requests with
// matching architecture, trace length and point set.
func TestCheckpointFingerprintIsolation(t *testing.T) {
	pts := Grid([]int{64}, 2)
	path := tmpJournal(t)
	base := Request{Arch: synth.PDP11, Points: pts, Refs: 5000, Checkpoint: path,
		Engine: MultiPass}
	if _, err := Run(base); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*Request){
		"refs":   func(r *Request) { r.Refs = 6000 },
		"points": func(r *Request) { r.Points = r.Points[:len(r.Points)-1] },
		"arch":   func(r *Request) { r.Arch = synth.Z8000 },
	} {
		req := base
		mutate(&req)
		res, err := Run(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Resumed != 0 {
			t.Errorf("%s: resumed %d workloads from a foreign journal entry", name, res.Resumed)
		}
	}

	// Unchanged request: everything resumes.
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(synth.Workloads(synth.PDP11)); res.Resumed != want {
		t.Errorf("identical request resumed %d workloads, want %d", res.Resumed, want)
	}
	if res.TracePasses != 0 {
		t.Errorf("fully resumed sweep made %d trace passes", res.TracePasses)
	}
}

// TestCheckpointRefusesOverride: an Override cannot be fingerprinted,
// so checkpointing one is an error, not a silent wrong resume.
func TestCheckpointRefusesOverride(t *testing.T) {
	_, err := Run(Request{
		Arch: synth.PDP11, Points: Grid([]int{64}, 2), Refs: 1000,
		Checkpoint: tmpJournal(t),
		Override:   func(c *cache.Config) { c.CopyBack = true },
	})
	if err == nil {
		t.Fatal("checkpointed sweep accepted an Override")
	}
}

// TestCheckpointSkipsFailedWorkloads: a workload that failed is not
// journaled, so a resumed run retries it rather than trusting a
// partial result.  ED is the PDP-11 suite's last workload, so at
// Parallelism 1 every other workload completes and is journaled before
// ED fails the sweep.
func TestCheckpointSkipsFailedWorkloads(t *testing.T) {
	pts := Grid([]int{64}, 2)
	path := tmpJournal(t)
	boom := &Hooks{BeforeUnit: func(w string, _ int, _ []Point, _ int) {
		if w == "ED" {
			panic("injected")
		}
	}}
	res, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 9000,
		Engine: MultiPass, Shards: 1, Parallelism: 1,
		Checkpoint: path, Hooks: boom})
	var pe *PointError
	if !errors.As(err, &pe) || pe.Workload != "ED" {
		t.Fatalf("injected panic: err = %v, want a PointError on ED", err)
	}
	if res != nil {
		t.Fatal("failed sweep returned a result")
	}

	// The retry (no fault) must restore every other workload, re-simulate
	// ED and come out clean.
	got, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 9000,
		Engine: MultiPass, Shards: 1, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(synth.Workloads(synth.PDP11)) - 1; got.Resumed != want {
		t.Errorf("retry resumed %d workloads, want %d (all but ED)", got.Resumed, want)
	}
	want, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 9000, Engine: Reference})
	if err != nil {
		t.Fatal(err)
	}
	if string(marshalRuns(t, got)) != string(marshalRuns(t, want)) {
		t.Error("retried run differs from a clean run")
	}
}
