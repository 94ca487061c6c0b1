package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The structured event stream: one JSON object per line, written
// alongside the checkpoint journal, so a running (or crashed) sweep
// can be observed by tailing a file.  The schema is versioned and
// deliberately flat: a fixed envelope carrying exactly one typed
// payload, which keeps decoding trivial for tools in any language and
// makes round-trip tests exact.

// SchemaVersion is bumped when an envelope or payload field changes
// meaning; additions are backward compatible and do not bump it.
const SchemaVersion = 1

// Event types.
const (
	// EventRunStart opens one sweep: what will be simulated and how.
	EventRunStart = "run-start"
	// EventPointDone records one completed (workload, point) pair.
	EventPointDone = "point-done"
	// EventShardStat summarises one shard worker at end of a
	// workload's pass: balance and throughput.
	EventShardStat = "shard-stat"
	// EventErrorAttributed records one attributed simulation failure:
	// one per point a failed workload lost, or one for a workload-scope
	// failure.
	EventErrorAttributed = "error-attributed"
	// EventHeartbeat carries a periodic counter snapshot.
	EventHeartbeat = "heartbeat"
	// EventRunEnd terminates one recorder's stream: the final counter
	// snapshot plus whether the run was interrupted.  Run.Close emits
	// it after the heartbeat goroutine has fully stopped, so it is
	// always the last event -- ValidateStream rejects anything after
	// it, which is how consumers detect a torn shutdown.
	EventRunEnd = "run-end"
	// EventSpanStart opens one timed span of the run's lifecycle
	// (queue wait, a sweep attempt, a shard's pass...).  Spans nest:
	// a non-empty parent must name a span that is still open, and
	// ValidateStream enforces balanced nesting.
	EventSpanStart = "span-start"
	// EventSpanEnd closes one span with its measured duration.
	EventSpanEnd = "span-end"
)

// Event is the envelope every telemetry event shares.  Exactly one
// payload pointer is non-nil, matching Type; Validate enforces it.
type Event struct {
	// V is the schema version (SchemaVersion).
	V int `json:"v"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Seq is the emission sequence number, unique and increasing
	// within one recorder's stream.
	Seq uint64 `json:"seq"`
	// ElapsedMS is wall milliseconds since the recorder started.
	ElapsedMS int64 `json:"elapsed_ms"`

	RunStart  *RunStart        `json:"run_start,omitempty"`
	PointDone *PointDone       `json:"point_done,omitempty"`
	ShardStat *ShardStat       `json:"shard_stat,omitempty"`
	Error     *ErrorAttributed `json:"error,omitempty"`
	Heartbeat *Heartbeat       `json:"heartbeat,omitempty"`
	RunEnd    *RunEnd          `json:"run_end,omitempty"`
	Span      *Span            `json:"span,omitempty"`
	SpanEnd   *SpanEnd         `json:"span_end,omitempty"`
}

// RunStart is the EventRunStart payload.
type RunStart struct {
	// Arch names the architecture suite being swept.
	Arch string `json:"arch"`
	// Engine is the simulation strategy ("multipass" or "reference").
	Engine string `json:"engine"`
	// Shards is the shard workers per workload that the sweep ran:
	// the auto count it resolved, or the count a test asked for.
	Shards int `json:"shards"`
	// Points is the number of grid points per workload.
	Points int `json:"points"`
	// Workloads is the number of workloads in the sweep.
	Workloads int `json:"workloads"`
	// Refs is the requested trace length per workload.
	Refs int `json:"refs"`
	// Checkpoint reports whether a checkpoint journal is attached.
	Checkpoint bool `json:"checkpoint,omitempty"`
}

// PointDone is the EventPointDone payload.
type PointDone struct {
	Workload string `json:"workload"`
	// Point is the grid point in the paper's notation, e.g. "1024:16,8".
	Point string `json:"point"`
	// Miss and Traffic are the run's headline ratios.
	Miss    float64 `json:"miss"`
	Traffic float64 `json:"traffic"`
	// Resumed marks a pair restored from the checkpoint journal
	// rather than simulated.
	Resumed bool `json:"resumed,omitempty"`
}

// ShardStat is the EventShardStat payload.
type ShardStat struct {
	Workload string `json:"workload"`
	Shard    int    `json:"shard"`
	// Units is the number of simulation units (families + fallback
	// caches) the shard owned; Lanes counts their configurations.
	Units int `json:"units"`
	Lanes int `json:"lanes"`
	// EstCost is the partitioner's per-access cost estimate for the
	// shard's plan; compare across shards against BusyMS to judge the
	// balance heuristic.
	EstCost int `json:"est_cost"`
	// Refs is the number of trace references fed to the shard.
	Refs uint64 `json:"refs"`
	// BusyMS is wall time the shard spent simulating (not waiting).
	BusyMS float64 `json:"busy_ms"`
}

// ErrorAttributed is the EventErrorAttributed payload.
type ErrorAttributed struct {
	Workload string `json:"workload"`
	// Point is the lost grid point, empty for a workload-scope
	// failure (which loses every point of the workload).
	Point string `json:"point,omitempty"`
	// Shard is the shard worker that hosted the failure, -1 for a
	// workload-scope failure, which no shard owns.
	Shard int `json:"shard"`
	// Cause is the error text; Panic marks a recovered panic.
	Cause string `json:"cause"`
	Panic bool   `json:"panic,omitempty"`
}

// Span is the EventSpanStart payload: one timed slice of the run.
type Span struct {
	// Trace groups every span of one logical operation; the service
	// uses the job fingerprint, CLI sweeps the config fingerprint.
	// Run.Emit stamps it from Options.TraceID when left empty.
	Trace string `json:"trace,omitempty"`
	// ID is unique within the stream; SpanEnd closes it by ID.
	ID string `json:"id"`
	// Parent is the enclosing span's ID; empty for a root span.  A
	// non-empty parent must be open when the child starts.
	Parent string `json:"parent,omitempty"`
	// Name is the span's kind: "job", "queue", "attempt", "workload",
	// "produce", "shard", "flush", "cache-write"...
	Name string `json:"name"`
	// Workload names the workload a sweep-level span serves, when
	// there is one; point-done events reconcile against it.
	Workload string `json:"workload,omitempty"`
	// Detail disambiguates siblings: attempt number, shard index,
	// "resumed"...
	Detail string `json:"detail,omitempty"`
}

// SpanEnd is the EventSpanEnd payload.
type SpanEnd struct {
	Trace string `json:"trace,omitempty"`
	// ID matches the span-start being closed.
	ID string `json:"id"`
	// DurNanos is the span's measured wall duration.
	DurNanos int64 `json:"dur_ns"`
	// Err carries the failure that ended the span, when there was one.
	Err string `json:"err,omitempty"`
}

// Heartbeat is the EventHeartbeat payload.
type Heartbeat struct {
	Snapshot *Snapshot `json:"snapshot"`
}

// RunEnd is the EventRunEnd payload: the stream's terminal record.
type RunEnd struct {
	// Interrupted marks a run cut short (signal, cancellation, drain)
	// rather than completed; its counters describe the partial run.
	Interrupted bool `json:"interrupted,omitempty"`
	// Snapshot is the recorder's final, quiesced counter state.
	Snapshot *Snapshot `json:"snapshot"`
}

// Validate checks an event against the schema: known version and
// type, exactly one payload, and the payload matching the type with
// its required fields set.
func (ev *Event) Validate() error {
	if ev.V != SchemaVersion {
		return fmt.Errorf("telemetry: event seq %d: version %d, want %d", ev.Seq, ev.V, SchemaVersion)
	}
	if ev.ElapsedMS < 0 {
		return fmt.Errorf("telemetry: event seq %d: negative elapsed_ms %d", ev.Seq, ev.ElapsedMS)
	}
	payloads := 0
	for _, p := range []bool{ev.RunStart != nil, ev.PointDone != nil, ev.ShardStat != nil, ev.Error != nil, ev.Heartbeat != nil, ev.RunEnd != nil, ev.Span != nil, ev.SpanEnd != nil} {
		if p {
			payloads++
		}
	}
	if payloads != 1 {
		return fmt.Errorf("telemetry: event seq %d (%s): %d payloads, want exactly 1", ev.Seq, ev.Type, payloads)
	}
	switch ev.Type {
	case EventRunStart:
		if p := ev.RunStart; p == nil {
			return payloadMismatch(ev)
		} else if p.Arch == "" || p.Engine == "" || p.Points <= 0 || p.Workloads <= 0 || p.Refs <= 0 {
			return fmt.Errorf("telemetry: run-start seq %d: missing arch/engine or non-positive points/workloads/refs", ev.Seq)
		}
	case EventPointDone:
		if p := ev.PointDone; p == nil {
			return payloadMismatch(ev)
		} else if p.Workload == "" || p.Point == "" {
			return fmt.Errorf("telemetry: point-done seq %d: empty workload or point", ev.Seq)
		}
	case EventShardStat:
		if p := ev.ShardStat; p == nil {
			return payloadMismatch(ev)
		} else if p.Workload == "" || p.Shard < 0 {
			return fmt.Errorf("telemetry: shard-stat seq %d: empty workload or negative shard", ev.Seq)
		}
	case EventErrorAttributed:
		if p := ev.Error; p == nil {
			return payloadMismatch(ev)
		} else if p.Workload == "" || p.Cause == "" {
			return fmt.Errorf("telemetry: error-attributed seq %d: empty workload or cause", ev.Seq)
		} else if p.Shard < -1 {
			return fmt.Errorf("telemetry: error-attributed seq %d: shard %d < -1", ev.Seq, p.Shard)
		}
	case EventHeartbeat:
		if p := ev.Heartbeat; p == nil {
			return payloadMismatch(ev)
		} else if p.Snapshot == nil {
			return fmt.Errorf("telemetry: heartbeat seq %d: nil snapshot", ev.Seq)
		}
	case EventRunEnd:
		if p := ev.RunEnd; p == nil {
			return payloadMismatch(ev)
		} else if p.Snapshot == nil {
			return fmt.Errorf("telemetry: run-end seq %d: nil snapshot", ev.Seq)
		}
	case EventSpanStart:
		if p := ev.Span; p == nil {
			return payloadMismatch(ev)
		} else if p.ID == "" || p.Name == "" {
			return fmt.Errorf("telemetry: span-start seq %d: empty id or name", ev.Seq)
		}
	case EventSpanEnd:
		if p := ev.SpanEnd; p == nil {
			return payloadMismatch(ev)
		} else if p.ID == "" {
			return fmt.Errorf("telemetry: span-end seq %d: empty id", ev.Seq)
		} else if p.DurNanos < 0 {
			return fmt.Errorf("telemetry: span-end seq %d: negative dur_ns %d", ev.Seq, p.DurNanos)
		}
	default:
		return fmt.Errorf("telemetry: event seq %d: unknown type %q", ev.Seq, ev.Type)
	}
	return nil
}

func payloadMismatch(ev *Event) error {
	return fmt.Errorf("telemetry: event seq %d: payload does not match type %q", ev.Seq, ev.Type)
}

// Sink consumes emitted events.  Implementations must be safe for
// concurrent Write calls.
type Sink interface {
	Write(ev *Event) error
	Close() error
}

// JSONLSink writes events as JSON lines.  Writes are serialised by a
// mutex and buffered; Flush (or Close) makes them visible to tailing
// readers.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error // latched write failure
}

// NewJSONLSink wraps an open writer (closed with the sink if it
// implements io.Closer).
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// CreateJSONLSink creates (truncating) an event file, making parent
// directories as needed -- like WriteFileAtomic, so "-events dir/x"
// works before dir exists.
func CreateJSONLSink(path string) (*JSONLSink, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("telemetry: events: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: events: %w", err)
	}
	return NewJSONLSink(f), nil
}

// Write implements Sink.
func (s *JSONLSink) Write(ev *Event) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if _, err := s.w.Write(append(b, '\n')); err != nil {
		s.err = err
		return err
	}
	return nil
}

// Flush pushes buffered events to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// Close flushes and releases the sink.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ferr := s.w.Flush()
	if s.err == nil {
		s.err = fmt.Errorf("telemetry: sink closed")
	}
	if s.c != nil {
		if cerr := s.c.Close(); ferr == nil {
			ferr = cerr
		}
	}
	return ferr
}

// StreamStats summarises a validated event stream.
type StreamStats struct {
	// Events counts valid events; ByType breaks them down.
	Events int
	ByType map[string]int
}

// newStreamScanner sizes a line scanner for event streams (heartbeat
// snapshots can be large).
func newStreamScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	return sc
}

// decodeStreamLine parses one stream line into a schema-validated
// event; skip is true for a blank line.
func decodeStreamLine(raw []byte) (Event, bool, error) {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 {
		return Event{}, true, nil
	}
	var ev Event
	if err := json.Unmarshal(raw, &ev); err != nil {
		return ev, false, err
	}
	if err := ev.Validate(); err != nil {
		return ev, false, err
	}
	return ev, false, nil
}

// openSpan tracks one not-yet-ended span during stream validation.
type openSpan struct {
	parent   string
	workload string
	children int
}

// ValidateStream reads a JSONL event stream and validates every line:
// schema-valid events with strictly increasing sequence numbers and
// non-decreasing elapsed times, nothing after a run-end event (the
// stream's terminal record -- a heartbeat landing after it would mean
// a torn shutdown), and well-formed spans: unique IDs, parents open
// when a child starts, balanced nesting (a span may not end while a
// child is open, and a completed stream -- one that reaches run-end --
// may not leave spans open), and every point-done emitted after spans
// appear attributable to an open span carrying its workload.  It
// returns the summary and the first error (with its line number).
func ValidateStream(r io.Reader) (StreamStats, error) {
	st := StreamStats{ByType: make(map[string]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	line := 0
	var lastSeq uint64
	var lastElapsed int64
	ended := false
	open := make(map[string]*openSpan)
	seenIDs := make(map[string]bool)
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return st, fmt.Errorf("line %d: %w", line, err)
		}
		if err := ev.Validate(); err != nil {
			return st, fmt.Errorf("line %d: %w", line, err)
		}
		if st.Events > 0 && ev.Seq <= lastSeq {
			return st, fmt.Errorf("line %d: seq %d not after %d", line, ev.Seq, lastSeq)
		}
		if ev.ElapsedMS < lastElapsed {
			return st, fmt.Errorf("line %d: elapsed_ms %d before %d (time went backwards)", line, ev.ElapsedMS, lastElapsed)
		}
		if ended {
			return st, fmt.Errorf("line %d: %s event after run-end (torn shutdown)", line, ev.Type)
		}
		switch ev.Type {
		case EventSpanStart:
			p := ev.Span
			if seenIDs[p.ID] {
				return st, fmt.Errorf("line %d: duplicate span id %q", line, p.ID)
			}
			seenIDs[p.ID] = true
			if p.Parent != "" {
				par, ok := open[p.Parent]
				if !ok {
					return st, fmt.Errorf("line %d: span %q parent %q not open", line, p.ID, p.Parent)
				}
				par.children++
			}
			open[p.ID] = &openSpan{parent: p.Parent, workload: p.Workload}
		case EventSpanEnd:
			p := ev.SpanEnd
			sp, ok := open[p.ID]
			if !ok {
				return st, fmt.Errorf("line %d: span-end for %q, which is not open", line, p.ID)
			}
			if sp.children > 0 {
				return st, fmt.Errorf("line %d: span %q ended with %d open children (unbalanced nesting)", line, p.ID, sp.children)
			}
			if sp.parent != "" {
				if par, ok := open[sp.parent]; ok {
					par.children--
				}
			}
			delete(open, p.ID)
		case EventPointDone:
			if len(seenIDs) > 0 {
				wl, found := ev.PointDone.Workload, false
				for _, sp := range open {
					if sp.workload == wl {
						found = true
						break
					}
				}
				if !found {
					return st, fmt.Errorf("line %d: point-done for workload %q with no open span carrying it", line, wl)
				}
			}
		case EventRunEnd:
			if len(open) > 0 {
				for id := range open {
					return st, fmt.Errorf("line %d: run-end with span %q still open", line, id)
				}
			}
		}
		ended = ev.Type == EventRunEnd
		lastSeq = ev.Seq
		lastElapsed = ev.ElapsedMS
		st.Events++
		st.ByType[ev.Type]++
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("line %d: %w", line, err)
	}
	return st, nil
}
