// Job journal: crash-safe persistence of the service's job table.
//
// Every job state transition -- admitted, started, completed, failed,
// canceled, evicted -- is one appended JSON line in <dir>/jobs.jsonl,
// following the internal/sweep checkpoint record conventions: a schema
// version, a per-record SHA-256 checksum over the serialised payload,
// one fsynced append per record, and torn-tail tolerance on load (a
// record killed mid-write fails its checksum and is skipped, never
// half-trusted).  The admitted record carries the full wire request
// (as raw JSON, so its checksum covers the bytes as written), so
// startup replay can reconstruct and re-admit every job that never
// reached a terminal state: the crash-recovery half of the service's
// "every admitted job reaches a terminal state exactly once" contract.
// Because the job id is the request fingerprint, a client polling a
// recovered id lands on the re-admitted job via the ordinary
// singleflight path, and the re-run resumes bit-identically from the
// job's per-fingerprint checkpoint journal.
//
// On open the journal is compacted: terminal jobs need no records (the
// verified result cache serves them), so the rewritten file holds one
// admitted record per non-terminal job, written atomically
// (telemetry.WriteFileAtomic) before appends resume.  That bounds the
// file across restarts without ever losing a live job.
package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"subcache/internal/telemetry"
)

// JournalVersion is the job-journal record schema version, bumped when
// a field changes meaning; records with a different version are skipped
// on load and rejected by ValidateJournal.
const JournalVersion = 1

// Job-journal transition kinds.  ValidateJournal rejects anything else.
const (
	// KindAdmitted: the job passed admission control onto the queue;
	// the record carries the wire request for crash replay.
	KindAdmitted = "admitted"
	// KindStarted: a worker began simulating the job.
	KindStarted = "started"
	// KindCompleted: the job finished; its result is in the cache.
	KindCompleted = "completed"
	// KindFailed: the sweep returned a non-retryable (or
	// retry-exhausted) error, or hit its deadline.
	KindFailed = "failed"
	// KindCanceled: drain cut the job short before or during
	// simulation; the client was told, so replay does not re-admit it.
	KindCanceled = "canceled"
	// KindEvicted: the job's cached result was removed by TTL or
	// size-cap eviction; the job stays terminal, a resubmission
	// re-simulates (resuming from its checkpoint journal if present).
	KindEvicted = "evicted"
)

// journalKinds is the closed transition vocabulary.
var journalKinds = map[string]bool{
	KindAdmitted:  true,
	KindStarted:   true,
	KindCompleted: true,
	KindFailed:    true,
	KindCanceled:  true,
	KindEvicted:   true,
}

// JournalRecord is one job state transition.  Sum is the hex SHA-256 of
// the record serialised with Sum empty, exactly the internal/sweep
// checkpoint convention; load and ValidateJournal reject records whose
// recomputed sum differs.
type JournalRecord struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	FP   string `json:"fp"`
	// Tenant and Req ride the admitted record so replay can re-admit
	// with the original quota attribution and request.  Req is the
	// SweepRequest as raw JSON: re-marshalling it reproduces the bytes
	// the checksum covers even when it holds fields this server no
	// longer takes, such as the engine and shards of older servers.
	Tenant string          `json:"tenant,omitempty"`
	Req    json.RawMessage `json:"req,omitempty"`
	// Error carries the failure or cancellation text on terminal
	// records.
	Error string `json:"error,omitempty"`
	// UnixMS is the transition's wall-clock time.
	UnixMS int64  `json:"unix_ms"`
	Sum    string `json:"sum,omitempty"`
}

// sum computes the record's checksum over its payload (Sum cleared).
func (r JournalRecord) sum() (string, error) {
	r.Sum = ""
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// verify recomputes the checksum and checks the record's schema.
func (r *JournalRecord) verify() error {
	if r.V != JournalVersion {
		return fmt.Errorf("version %d, want %d", r.V, JournalVersion)
	}
	if !journalKinds[r.Kind] {
		return fmt.Errorf("unknown transition kind %q", r.Kind)
	}
	if r.FP == "" {
		return fmt.Errorf("%s record missing fp", r.Kind)
	}
	if r.Kind == KindAdmitted && (len(r.Req) == 0 || r.Req[0] != '{') {
		return fmt.Errorf("admitted record for %s missing request", r.FP)
	}
	if r.Sum == "" {
		return fmt.Errorf("record missing sum")
	}
	want, err := r.sum()
	if err != nil {
		return err
	}
	if want != r.Sum {
		return fmt.Errorf("checksum mismatch (have %s, want %s)", r.Sum, want)
	}
	return nil
}

// jobState is one fingerprint's replayed journal state: its last
// transition plus the admission context needed to re-admit it.
type jobState struct {
	fp     string
	kind   string
	tenant string
	req    json.RawMessage
}

// terminal reports whether the state needs no recovery.
func (s jobState) terminal() bool {
	return s.kind != KindAdmitted && s.kind != KindStarted
}

// jobJournal is the open job-table write-ahead journal.  Safe for
// concurrent Append calls; the service appends under its own mutex
// anyway, so transitions land in the order the job table changed.
type jobJournal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	rec  telemetry.Recorder
	// Skipped counts lines rejected on load: torn tails, corruption,
	// foreign versions.  Informational.
	Skipped int
}

// openJobJournal loads, compacts and reopens the journal at path.  It
// returns the journal plus every non-terminal job in admission order,
// ready for re-admission.  The compacted file -- one fresh admitted
// record per recovered job -- is written atomically before appends
// resume, so a crash during open leaves either the old journal or the
// compacted one, never a torn mix.
func openJobJournal(path string, rec telemetry.Recorder) (*jobJournal, []jobState, error) {
	j := &jobJournal{path: path, rec: telemetry.OrNop(rec)}
	states := make(map[string]jobState)
	var order []string // first-admission order of live fingerprints
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<26)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var r JournalRecord
			if err := json.Unmarshal(line, &r); err != nil || r.verify() != nil {
				j.Skipped++
				continue
			}
			prev, seen := states[r.FP]
			next := jobState{fp: r.FP, kind: r.Kind, tenant: r.Tenant, req: r.Req}
			if r.Kind != KindAdmitted && seen {
				// Non-admission transitions keep the admission context.
				next.tenant, next.req = prev.tenant, prev.req
			}
			states[r.FP] = next
			if !seen {
				order = append(order, r.FP)
			}
		}
		if err := sc.Err(); err != nil {
			// An unreadable tail invalidates nothing already verified.
			j.Skipped++
		}
		f.Close()
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("service: job journal: %w", err)
	}

	var recovered []jobState
	var compacted bytes.Buffer
	for _, fp := range order {
		st := states[fp]
		if st.terminal() || st.req == nil {
			continue
		}
		r := JournalRecord{
			V: JournalVersion, Kind: KindAdmitted, FP: fp,
			Tenant: st.tenant, Req: st.req, UnixMS: time.Now().UnixMilli(),
		}
		sum, err := r.sum()
		if err != nil {
			return nil, nil, fmt.Errorf("service: job journal: %w", err)
		}
		r.Sum = sum
		b, err := json.Marshal(r)
		if err != nil {
			return nil, nil, fmt.Errorf("service: job journal: %w", err)
		}
		compacted.Write(append(b, '\n'))
		recovered = append(recovered, st)
	}
	if err := telemetry.WriteFileAtomic(path, compacted.Bytes(), 0o644); err != nil {
		return nil, nil, fmt.Errorf("service: job journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: job journal: %w", err)
	}
	j.f = f
	return j, recovered, nil
}

// append writes one fsynced transition record: fully journaled, or (on
// a crash mid-write) fully rejected by the checksum on the next load.
func (j *jobJournal) append(r JournalRecord) error {
	r.V = JournalVersion
	r.UnixMS = time.Now().UnixMilli()
	sum, err := r.sum()
	if err != nil {
		return fmt.Errorf("service: job journal: %w", err)
	}
	r.Sum = sum
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("service: job journal: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("service: job journal %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("service: job journal %s: %w", j.path, err)
	}
	j.rec.Add(telemetry.JobJournalRecords, 1)
	return nil
}

// Close releases the journal file.
func (j *jobJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// JournalStats summarises a validated job journal.
type JournalStats struct {
	// Records counts valid records; ByKind breaks them down.
	Records int
	ByKind  map[string]int
}

// ValidateJournal strictly validates a job-journal stream, the
// consumer-side schema contract cmd/eventcheck enforces in CI: every
// line must be a version-JournalVersion record with a known transition
// kind, a verifying SHA-256 checksum, and the kind's required fields.
// Unlike the loader -- which tolerates torn tails because a crashed
// writer is its normal input -- validation rejects them: a compacted or
// cleanly shut down journal has no excuse for an invalid line.
func ValidateJournal(r io.Reader) (JournalStats, error) {
	st := JournalStats{ByKind: make(map[string]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return st, fmt.Errorf("line %d: %w", line, err)
		}
		if err := rec.verify(); err != nil {
			return st, fmt.Errorf("line %d: %w", line, err)
		}
		st.Records++
		st.ByKind[rec.Kind]++
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("line %d: %w", line, err)
	}
	return st, nil
}
