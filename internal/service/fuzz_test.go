package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzValidateJournal: arbitrary bytes must never panic the strict
// job-journal validator, and a journal it accepts has consistent
// tallies and is one the tolerant loader reads with nothing skipped.
// The seeds are TestValidateJournalRejects' good record, whole and
// torn, and a record whose checksum no longer matches.
func FuzzValidateJournal(f *testing.F) {
	good := JournalRecord{V: JournalVersion, Kind: KindAdmitted, FP: "a", Req: journalWire(1000), UnixMS: 1}
	sum, err := good.sum()
	if err != nil {
		f.Fatal(err)
	}
	good.Sum = sum
	line, err := json.Marshal(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte(nil), line...), '\n'))
	f.Add(line[:len(line)-3])
	f.Add(bytes.Replace(line, []byte(`"fp":"a"`), []byte(`"fp":"z"`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ValidateJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := 0
		for _, c := range st.ByKind {
			n += c
		}
		if n != st.Records {
			t.Fatalf("Records = %d, but ByKind sums to %d", st.Records, n)
		}
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, _, err := openJobJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if j.Skipped != 0 {
			t.Fatalf("validated journal, but the loader skipped %d lines", j.Skipped)
		}
	})
}
