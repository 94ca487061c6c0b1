// Unit tests for the job journal: record integrity, replay semantics,
// compaction, and -- the crash case that matters -- torn-tail recovery
// at every byte boundary of the final record.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// journalWire is a minimal valid wire request for admitted records.
func journalWire(refs int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"arch":"PDP-11","nets":[64],"refs":%d}`, refs))
}

// appendAll opens the journal at path and appends the given records.
func appendAll(t *testing.T, path string, recs ...JournalRecord) {
	t.Helper()
	j, _, err := openJobJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// recoveredFPs opens the journal and returns the recovered
// fingerprints in admission order, plus the skipped-line count.
func recoveredFPs(t *testing.T, path string) ([]string, int) {
	t.Helper()
	j, recovered, err := openJobJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fps := make([]string, 0, len(recovered))
	for _, st := range recovered {
		fps = append(fps, st.fp)
	}
	return fps, j.Skipped
}

// TestJournalReplaySemantics pins last-record-wins replay: only jobs
// whose final transition is admitted or started are recovered, in
// first-admission order, and compaction rewrites exactly them.
func TestJournalReplaySemantics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	appendAll(t, path,
		JournalRecord{Kind: KindAdmitted, FP: "a", Tenant: "t1", Req: journalWire(1000)},
		JournalRecord{Kind: KindAdmitted, FP: "b", Req: journalWire(1001)},
		JournalRecord{Kind: KindStarted, FP: "a"},
		JournalRecord{Kind: KindAdmitted, FP: "c", Req: journalWire(1002)},
		JournalRecord{Kind: KindCompleted, FP: "b"},
		JournalRecord{Kind: KindAdmitted, FP: "d", Req: journalWire(1003)},
		JournalRecord{Kind: KindCanceled, FP: "d", Error: "drained"},
		JournalRecord{Kind: KindEvicted, FP: "b"},
	)
	fps, skipped := recoveredFPs(t, path)
	if want := []string{"a", "c"}; !equalStrings(fps, want) {
		t.Fatalf("recovered %v, want %v (a started, c admitted; b completed, d canceled)", fps, want)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d lines in a clean journal", skipped)
	}

	// The compacted file holds exactly one admitted record per live job
	// and validates strictly.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := ValidateJournal(f)
	if err != nil {
		t.Fatalf("compacted journal invalid: %v", err)
	}
	if stats.Records != 2 || stats.ByKind[KindAdmitted] != 2 {
		t.Fatalf("compacted journal: %d records %v, want 2 admitted", stats.Records, stats.ByKind)
	}
}

// TestJournalTornTailRecovery truncates the journal at every byte
// boundary of its final record and asserts replay stays clean: the torn
// record is skipped (never half-trusted) and everything before it
// replays exactly.  The final record is a completion, so whether it
// survives is visible in the recovered set.
func TestJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	appendAll(t, path,
		JournalRecord{Kind: KindAdmitted, FP: "a", Req: journalWire(1000)},
		JournalRecord{Kind: KindAdmitted, FP: "b", Req: journalWire(1001)},
		JournalRecord{Kind: KindStarted, FP: "b"},
		JournalRecord{Kind: KindCompleted, FP: "b"},
	)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.TrimRight(full, "\n")
	start := bytes.LastIndexByte(body, '\n') + 1 // final record's first byte

	for cut := start; cut <= len(full); cut++ {
		tpath := filepath.Join(dir, "torn.jsonl")
		if err := os.WriteFile(tpath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		fps, skipped := recoveredFPs(t, tpath)
		complete := cut == len(full) || (cut == len(full)-1 && full[len(full)-1] == '\n')
		if complete {
			// The completion record survived: only a recovers.
			if want := []string{"a"}; !equalStrings(fps, want) {
				t.Fatalf("cut %d/%d: recovered %v, want %v", cut, len(full), fps, want)
			}
		} else {
			// The completion is torn: it must be skipped whole, leaving
			// b's last intact record (started) to drive recovery.
			if want := []string{"a", "b"}; !equalStrings(fps, want) {
				t.Fatalf("cut %d/%d: recovered %v, want %v", cut, len(full), fps, want)
			}
			if cut > start && skipped != 1 {
				t.Fatalf("cut %d/%d: skipped %d, want 1 (the torn record)", cut, len(full), skipped)
			}
		}
	}
}

// TestJournalAppendAfterCompaction proves the reopened journal appends
// after the compacted prefix rather than clobbering it.
func TestJournalAppendAfterCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	appendAll(t, path, JournalRecord{Kind: KindAdmitted, FP: "a", Req: journalWire(1000)})

	j, recovered, err := openJobJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].fp != "a" {
		t.Fatalf("recovered %+v, want [a]", recovered)
	}
	if err := j.append(JournalRecord{Kind: KindCompleted, FP: "a"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	fps, _ := recoveredFPs(t, path)
	if len(fps) != 0 {
		t.Fatalf("recovered %v after completion, want none", fps)
	}
}

// TestValidateJournalRejects pins the strict consumer-side contract:
// unknown kinds, foreign versions, bad checksums and torn tails all
// fail validation even though the tolerant loader would skip them.
func TestValidateJournalRejects(t *testing.T) {
	good := JournalRecord{V: JournalVersion, Kind: KindAdmitted, FP: "a", Req: journalWire(1000), UnixMS: 1}
	sum, err := good.sum()
	if err != nil {
		t.Fatal(err)
	}
	good.Sum = sum
	goodLine, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(*JournalRecord)) string {
		r := good
		f(&r)
		s, err := r.sum()
		if err != nil {
			t.Fatal(err)
		}
		r.Sum = s
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	cases := []struct {
		name string
		line string
		want string
	}{
		{"unknown kind", mutate(func(r *JournalRecord) { r.Kind = "exploded" }), "unknown transition kind"},
		{"foreign version", mutate(func(r *JournalRecord) { r.V = JournalVersion + 1 }), "version"},
		{"missing fp", mutate(func(r *JournalRecord) { r.FP = "" }), "missing fp"},
		{"admitted without request", mutate(func(r *JournalRecord) { r.Req = nil }), "missing request"},
		{"bad checksum", strings.Replace(string(goodLine), `"fp":"a"`, `"fp":"z"`, 1), "checksum mismatch"},
		{"torn tail", string(goodLine[:len(goodLine)-3]), "unexpected end"},
	}
	for _, tc := range cases {
		in := string(goodLine) + "\n" + tc.line + "\n"
		if _, err := ValidateJournal(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated, want error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) && tc.want != "unexpected end" {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if st, err := ValidateJournal(strings.NewReader(string(goodLine) + "\n")); err != nil || st.Records != 1 {
		t.Fatalf("good line: %v records=%d, want valid single record", err, st.Records)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
