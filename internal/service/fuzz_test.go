package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
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

// FuzzStoreEnvelope: the input is used twice.  As a payload, a valid
// JSON one put and read back must be a hit returning exactly the bytes
// the entry's envelope carries, decoding to the value put.  As the
// bytes of an entry file, it must be served only if its envelope
// verifies (version, fingerprint and the payload's checksum), and
// otherwise be quarantined out of the serving path.  The seeds are
// TestStorePutGetRoundTrip's payloads, an entry put writes, and that
// entry with its checksum broken.
func FuzzStoreEnvelope(f *testing.F) {
	f.Add([]byte(`{"a": 1}`))
	f.Add([]byte("{\"a\":1}\n"))
	f.Add([]byte(`{"s":"<b>"}`))
	st, err := openStore(f.TempDir(), 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := st.put("fp", []byte(`{"points":[1,2]}`)); err != nil {
		f.Fatal(err)
	}
	entry, err := os.ReadFile(st.path("fp"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)
	f.Add(bytes.Replace(entry, []byte(`"sum":"`), []byte(`"sum":"0`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		const fp = "fp"
		if json.Valid(data) {
			st, err := openStore(t.TempDir(), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := st.put(fp, data); err != nil {
				t.Fatalf("put of valid JSON: %v", err)
			}
			got, status := st.get(fp)
			if status != storeHit {
				t.Fatalf("get after put: status %d, want hit", status)
			}
			env := readEnvelope(t, st.path(fp))
			if !bytes.Equal(got, env.Payload) {
				t.Fatalf("get returned %q, the envelope carries %q", got, env.Payload)
			}
			var want, have any
			if json.Unmarshal(data, &want) != nil || json.Unmarshal(got, &have) != nil || !reflect.DeepEqual(want, have) {
				t.Fatalf("put %q, read back %q", data, got)
			}
		}

		dir := t.TempDir()
		st, err := openStore(dir, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.path(fp), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, status := st.get(fp)
		switch status {
		case storeHit:
			env := readEnvelope(t, st.path(fp))
			if env.V != storeVersion || env.FP != fp || env.Sum != payloadSum(got) || !bytes.Equal(got, env.Payload) {
				t.Fatalf("served %q from an entry that does not verify: %+v", got, env)
			}
		case storeCorrupt:
			if _, err := os.Stat(st.path(fp)); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry left in the serving path (stat: %v)", err)
			}
			if des, err := os.ReadDir(filepath.Join(dir, "corrupt")); err != nil || len(des) != 1 {
				t.Fatalf("quarantine holds %d entries (err %v), want 1", len(des), err)
			}
		default:
			t.Fatalf("entry file read back with status %d, want hit or corrupt", status)
		}
	})
}

// readEnvelope decodes one entry file as get does.
func readEnvelope(t *testing.T, path string) storeEnvelope {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env storeEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	return env
}

// FuzzSubmitBody: arbitrary bytes decoded as a POST /v1/sweeps body
// (decodeSubmit) and resolved must never panic, and a request the
// server accepts must be one valid JSON value and sweep a non-empty
// grid under a fingerprint that survives the admission journal's round
// trip: the request marshalled as submit journals it resolves to the
// same fingerprint and sweep on replay (resolveJournaled) and when
// posted again.  The refused seeds must stay refused.  Only decoding
// and resolution run: the server's queue must stay empty.
func FuzzSubmitBody(f *testing.F) {
	f.Add([]byte(`{"arch":"PDP-11","nets":[64],"refs":1000}`))
	f.Add([]byte(`{"arch":"Z8000","nets":[64,256,1024],"refs":100000,"workloads":["CCP","C1"],"tenant":"t","timeout_sec":1.5}` + "\n"))
	f.Add([]byte(`{"arch":"PDP-11","nets":[2],"refs":1000,"workloads":[]}`))
	refused := map[string]bool{}
	for _, body := range []string{
		`{"arch":"VAX-11","nets":[64],"refs":1000,"engine":"multipass"}`,
		`{"arch":"System/370","nets":[3],"refs":1000}`,
		`{"arch":"PDP-11","nets":[64],"refs":0}`,
		`{"arch":"PDP-11","nets":[64],"refs":1000} trailing`,
		`{"arch":"PDP-11","nets":[64],"refs":1000} trailing {"x"`,
		`{"arch":"PDP-11","nets":[64],"refs":1000} {"arch":"PDP-11","nets":[64],"refs":1000}`,
		`{"arch":"PDP-11","nets":[64],"refs":1000}}`,
		`{"arch":"PDP-11","nets":[64],"refs":1000,"workloads":["OPSYS","OPSYS","PLOT"]}`,
		``,
	} {
		refused[body] = true
		f.Add([]byte(body))
	}
	s, err := New(Options{Dir: f.TempDir(), Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Shutdown(context.Background()) })

	f.Fuzz(func(t *testing.T, data []byte) {
		wire, err := decodeSubmit(nil, io.NopCloser(bytes.NewReader(data)))
		if err != nil {
			return
		}
		req, fp, err := s.resolve(&wire)
		if err != nil {
			return
		}
		if refused[string(data)] || !json.Valid(data) {
			t.Fatalf("accepted %q", data)
		}
		if len(req.Points) == 0 || fp == "" {
			t.Fatalf("accepted %q with %d points and fingerprint %q", data, len(req.Points), fp)
		}
		raw, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("marshal accepted request: %v", err)
		}
		_, replayed, replayFP, err := s.resolveJournaled(raw)
		if err != nil || replayFP != fp || !reflect.DeepEqual(replayed, req) {
			t.Fatalf("journaled %s replays to fingerprint %q (err %v), want %q", raw, replayFP, err, fp)
		}
		again, err := decodeSubmit(nil, io.NopCloser(bytes.NewReader(raw)))
		if err != nil {
			t.Fatalf("re-posting %s: %v", raw, err)
		}
		if _, againFP, err := s.resolve(&again); err != nil || againFP != fp {
			t.Fatalf("re-posting %s resolves to fingerprint %q (err %v), want %q", raw, againFP, err, fp)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.jobs) != 0 || s.queued != 0 {
			t.Fatalf("resolving ran a sweep: %d jobs, %d queued", len(s.jobs), s.queued)
		}
	})
}
