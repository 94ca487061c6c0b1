// Checkpoint journal: crash-safe persistence of completed sweep work.
//
// A journal is an append-only file of JSON lines, one entry per
// completed (request fingerprint, workload) pair, each carrying every
// point's metrics.Run and a SHA-256 checksum of its own payload.  A
// sweep with Request.Checkpoint set records each workload the moment
// it completes (single atomic append + fsync), and a restarted sweep
// restores matching entries instead of re-simulating them.  Because
// both engines and every shard count produce bit-identical runs, entries
// are keyed only by what determines results -- architecture, trace
// length, and the point set -- so a resume may freely change engine,
// shard count or parallelism, and a partial-suite run can seed a
// full-suite one.
//
// Robustness: a torn final line (killed mid-append), a corrupted line,
// or an entry whose checksum does not match is skipped on load and
// simply re-simulated; it can never be half-trusted.  Entries from
// other requests sharing the file are ignored, so one journal file can
// serve a whole experiment series.
package sweep

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"subcache/internal/metrics"
	"subcache/internal/telemetry"
)

// journalVersion is bumped when the entry layout changes; entries with
// a different version are skipped on load.
const journalVersion = 1

// journalRun pairs one grid point with its completed run.
type journalRun struct {
	Point Point       `json:"point"`
	Run   metrics.Run `json:"run"`
}

// journalEntry is one completed workload within one fingerprinted
// request.  Sum is the hex SHA-256 of the entry serialised with Sum
// empty; load rejects entries whose recomputed sum differs.
type journalEntry struct {
	V        int          `json:"v"`
	FP       string       `json:"fp"`
	Workload string       `json:"workload"`
	Runs     []journalRun `json:"runs"`
	Sum      string       `json:"sum,omitempty"`
}

// sum computes the entry's checksum over its payload (Sum cleared).
func (e journalEntry) sum() (string, error) {
	e.Sum = ""
	b, err := json.Marshal(e)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// Journal is an open checkpoint file.  Safe for concurrent Record
// calls from sweep workers.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	done map[string]journalEntry // "fp\x00workload" -> last valid entry
	rec  telemetry.Recorder      // set by RunContext; never nil
	// Skipped counts lines that failed to parse or verify on load:
	// torn tails, corruption, foreign versions.  Informational.
	Skipped int
}

func journalKey(fp, workload string) string { return fp + "\x00" + workload }

// OpenJournal opens (creating if needed) a checkpoint journal and
// loads every hash-verified entry.  Invalid lines are counted in
// Skipped and otherwise ignored.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	j := &Journal{f: f, path: path, done: make(map[string]journalEntry), rec: telemetry.Nop}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.V != journalVersion || e.Sum == "" {
			j.Skipped++
			continue
		}
		want, err := e.sum()
		if err != nil || want != e.Sum {
			j.Skipped++
			continue
		}
		j.done[journalKey(e.FP, e.Workload)] = e
	}
	if err := sc.Err(); err != nil {
		// An unreadable tail (e.g. a torn line longer than the buffer)
		// invalidates nothing already verified; keep what we have.
		j.Skipped++
	}
	// A crash mid-append leaves a last line with no newline.  End it,
	// so the next Record starts a line of its own instead of joining
	// the torn bytes and being skipped with them on the next load.
	if err := terminateLastLine(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: checkpoint %s: %w", path, err)
	}
	return j, nil
}

// terminateLastLine appends a newline, fsynced, to a non-empty file
// whose last byte is not one.
func terminateLastLine(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return err
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], fi.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
		return err
	}
	return f.Sync()
}

// Lookup returns the journaled runs for one workload under the given
// request fingerprint, or ok=false if none were recorded.
func (j *Journal) Lookup(fp, workload string) (map[Point]metrics.Run, bool) {
	j.mu.Lock()
	e, ok := j.done[journalKey(fp, workload)]
	j.mu.Unlock()
	if !ok {
		return nil, false
	}
	runs := make(map[Point]metrics.Run, len(e.Runs))
	for _, jr := range e.Runs {
		runs[jr.Point] = jr.Run
	}
	return runs, true
}

// Record appends one completed workload's runs as a single fsynced
// line, so the entry is either fully journaled or (on a crash
// mid-write) fully rejected by the checksum on the next load.
func (j *Journal) Record(fp, workload string, points []Point, runs map[Point]metrics.Run) error {
	e := journalEntry{V: journalVersion, FP: fp, Workload: workload}
	for _, p := range points {
		r, ok := runs[p]
		if !ok {
			return fmt.Errorf("sweep: checkpoint: workload %s missing point %v", workload, p)
		}
		e.Runs = append(e.Runs, journalRun{Point: p, Run: r})
	}
	sum, err := e.sum()
	if err != nil {
		return fmt.Errorf("sweep: checkpoint: %w", err)
	}
	e.Sum = sum
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	t0 := time.Now()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", j.path, err)
	}
	j.rec.Observe(telemetry.StageCheckpoint, time.Since(t0))
	j.done[journalKey(fp, workload)] = e
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// RequestFingerprint exposes a request's checkpoint fingerprint: the
// short stable hash of exactly what determines its results (see
// requestFingerprint).  The sweep service keys its result cache and
// singleflight dedup on it, so two requests that would simulate the
// same thing -- whatever their engine, shard count or parallelism --
// share one simulation and one cache entry.
func RequestFingerprint(req Request) (string, error) {
	return requestFingerprint(req)
}

// requestFingerprint hashes exactly what determines a sweep's results
// per workload: the architecture (and its word size), the trace
// length, and the requested point set.  Engine, shard count,
// parallelism and the workload subset are deliberately excluded --
// results are bit-identical across all of them, so a journal written
// under one execution strategy resumes under any other.  Override is
// an arbitrary function and cannot be fingerprinted, so checkpointing
// refuses it.
func requestFingerprint(req Request) (string, error) {
	if req.Override != nil {
		return "", fmt.Errorf("sweep: checkpointing a sweep with a config Override is not supported (the override cannot be fingerprinted)")
	}
	h := sha256.New()
	fmt.Fprintf(h, "v%d arch=%s word=%d refs=%d\n", journalVersion, req.Arch, req.Arch.WordSize(), req.Refs)
	pts := append([]Point(nil), req.Points...)
	SortPoints(pts)
	for _, p := range pts {
		fmt.Fprintln(h, p.String())
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// ckState carries an open journal plus the request context it verifies
// entries against.
type ckState struct {
	j      *Journal
	fp     string
	points []Point // request points, for Record's canonical order
}

func (c *ckState) lookup(workload string) (map[Point]metrics.Run, bool) {
	if c == nil {
		return nil, false
	}
	return c.j.Lookup(c.fp, workload)
}

func (c *ckState) record(workload string, runs map[Point]metrics.Run) error {
	if c == nil {
		return nil
	}
	return c.j.Record(c.fp, workload, c.points, runs)
}
