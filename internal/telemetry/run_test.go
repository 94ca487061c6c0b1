package telemetry

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// memSink collects events in memory for assertions.
type memSink struct {
	mu     sync.Mutex
	events []Event
	fail   error // returned by Write when set
	closed bool
}

func (m *memSink) Write(ev *Event) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return m.fail
	}
	m.events = append(m.events, *ev)
	return nil
}

func (m *memSink) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

func (m *memSink) all() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// TestRunSnapshot: counters, gauges and histograms all land in the
// snapshot under their wire names, and zero entries are omitted.
func TestRunSnapshot(t *testing.T) {
	r := NewRun(Options{})
	r.Add(RefsRead, 100)
	r.Add(RefsRead, 23)
	r.Add(PointsCompleted, 7)
	r.SetGauge(FreeRingOccupancy, 3)
	r.Observe(StageSimulate, 2*time.Millisecond)
	r.Observe(StageSimulate, 1*time.Millisecond)
	r.Observe(StageFlush, 0)
	r.Observe(HistQueueWait, time.Millisecond)

	s := r.Snapshot()
	if got := s.Counter(RefsRead); got != 123 {
		t.Errorf("refs_read = %d, want 123", got)
	}
	if got := s.Counter(PointsCompleted); got != 7 {
		t.Errorf("points_completed = %d, want 7", got)
	}
	if _, ok := s.Counters["points_failed"]; ok {
		t.Error("zero counter points_failed present in snapshot")
	}
	if got := s.Gauges["free_ring_occupancy"]; got != 3 {
		t.Errorf("free_ring_occupancy = %d, want 3", got)
	}
	// A stage's observation count and total time are its histogram's
	// count and sum; a stage observed only at zero duration has a count
	// and a zero sum.
	if hs := s.Hists["stage_simulate"]; hs == nil || hs.Count != 2 || hs.SumNanos != uint64(3*time.Millisecond) {
		t.Errorf("stage_simulate = %+v, want count 2, sum 3ms", hs)
	}
	if hs := s.Hists["stage_flush"]; hs == nil || hs.Count != 1 || hs.SumNanos != 0 {
		t.Errorf("zero-duration stage_flush = %+v, want count 1, sum 0", hs)
	}
	if hs := s.Hist(HistQueueWait); hs == nil || hs.Count != 1 {
		t.Errorf("job_queue_wait = %+v, want count 1", hs)
	}
	if _, ok := s.Hists["stage_decode"]; ok {
		t.Error("unobserved stage_decode present in hists")
	}

	// Out-of-range identifiers must be ignored, not corrupt memory.
	r.Add(Counter(-1), 1)
	r.Add(numCounters, 1)
	r.SetGauge(numGauges, 1)
	r.Observe(Hist(-1), time.Second)
	r.Observe(numHists, time.Second)
	if got := len(r.Snapshot().Hists); got != 3 {
		t.Errorf("after out-of-range observes, hists = %d entries, want 3", got)
	}
}

// TestRunEmitStamping: Emit fills in version, a strictly increasing
// sequence from 0, and a non-negative elapsed time; emitted events
// validate as-is.
func TestRunEmitStamping(t *testing.T) {
	sink := &memSink{}
	r := NewRun(Options{Sink: sink})
	for i := 0; i < 3; i++ {
		r.Emit(&Event{Type: EventPointDone, PointDone: &PointDone{Workload: "W", Point: "64:4,2"}})
	}
	evs := sink.all()
	if len(evs) != 3 {
		t.Fatalf("sink got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.V != SchemaVersion {
			t.Errorf("event %d: V = %d, want %d", i, ev.V, SchemaVersion)
		}
		if ev.Seq != uint64(i) {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, i)
		}
		if ev.ElapsedMS < 0 {
			t.Errorf("event %d: negative elapsed %d", i, ev.ElapsedMS)
		}
		if err := ev.Validate(); err != nil {
			t.Errorf("event %d: %v", i, err)
		}
	}
}

// TestRunSinkFailureCounted: a failing sink increments EventsDropped
// and never propagates the error to the caller.
func TestRunSinkFailureCounted(t *testing.T) {
	sink := &memSink{fail: errors.New("disk full")}
	r := NewRun(Options{Sink: sink})
	r.Emit(&Event{Type: EventHeartbeat, Heartbeat: &Heartbeat{Snapshot: &Snapshot{}}})
	r.Emit(&Event{Type: EventHeartbeat, Heartbeat: &Heartbeat{Snapshot: &Snapshot{}}})
	if got := r.Snapshot().Counter(EventsDropped); got != 2 {
		t.Errorf("events_dropped = %d, want 2", got)
	}
}

// TestRunCloseFinalHeartbeat: when a heartbeat consumer is configured,
// Close emits one final beat so the stream always ends with a complete
// snapshot, closes the sink, and is idempotent.
func TestRunCloseFinalHeartbeat(t *testing.T) {
	sink := &memSink{}
	var beats int
	r := NewRun(Options{Sink: sink, OnHeartbeat: func(s *Snapshot) {
		if s == nil {
			t.Error("nil snapshot in heartbeat callback")
		}
		beats++
	}})
	r.Add(RefsRead, 5)
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if beats != 1 {
		t.Errorf("heartbeat callbacks = %d, want 1", beats)
	}
	evs := sink.all()
	if len(evs) != 2 || evs[0].Type != EventHeartbeat || evs[1].Type != EventRunEnd {
		t.Fatalf("sink events = %+v, want heartbeat then run-end", evs)
	}
	if got := evs[0].Heartbeat.Snapshot.Counter(RefsRead); got != 5 {
		t.Errorf("final heartbeat refs_read = %d, want 5", got)
	}
	if evs[1].RunEnd.Interrupted {
		t.Error("run-end marked interrupted on a clean close")
	}
	if got := evs[1].RunEnd.Snapshot.Counter(RefsRead); got != 5 {
		t.Errorf("run-end snapshot refs_read = %d, want 5", got)
	}
	if !sink.closed {
		t.Error("sink not closed")
	}
	// Counters stay readable after Close.
	if got := r.Snapshot().Counter(RefsRead); got != 5 {
		t.Errorf("post-close refs_read = %d, want 5", got)
	}
}

// TestRunConcurrentUpdates: hammer every recorder method from many
// goroutines (run with -race) and check the totals are exact.
func TestRunConcurrentUpdates(t *testing.T) {
	sink := &memSink{}
	r := NewRun(Options{Sink: sink})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Add(RefsSimulated, 2)
				r.Observe(StageSimulate, time.Microsecond)
				r.SetGauge(ActiveWorkloads, int64(w))
			}
			r.Emit(&Event{Type: EventShardStat, ShardStat: &ShardStat{Workload: "W", Shard: w}})
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counter(RefsSimulated); got != workers*perWorker*2 {
		t.Errorf("refs_simulated = %d, want %d", got, workers*perWorker*2)
	}
	if hs := s.Hist(StageSimulate); hs == nil || hs.Count != workers*perWorker || hs.SumNanos != uint64(workers*perWorker*time.Microsecond) {
		t.Errorf("stage_simulate = %+v, want count and sum exact over %d observations of 1us", hs, workers*perWorker)
	}
	// Sequence numbers must be unique even under contention.
	seen := map[uint64]bool{}
	for _, ev := range sink.all() {
		if seen[ev.Seq] {
			t.Errorf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	if len(seen) != workers {
		t.Errorf("emitted %d events, want %d", len(seen), workers)
	}
}

// TestRunEmitOrderedInStream: concurrent emitters (simulating shard
// workers plus the heartbeat goroutine) must produce a stream whose
// file order matches seq order -- the contract ValidateStream enforces
// when CI checks a live sweep's events.
func TestRunEmitOrderedInStream(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	r := NewRun(Options{Sink: sink})
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%10 == 0 {
					r.heartbeat()
				}
				r.Emit(&Event{Type: EventPointDone, PointDone: &PointDone{Workload: "W", Point: "64:4,2"}})
			}
		}(w)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st, err := ValidateStream(&buf)
	if err != nil {
		t.Fatalf("stream invalid: %v", err)
	}
	// Every worker emission plus the terminal run-end event.
	if want := workers*perWorker*11/10 + 1; st.Events != want {
		t.Errorf("stream has %d events, want %d", st.Events, want)
	}
	if st.ByType[EventRunEnd] != 1 {
		t.Errorf("run-end events = %d, want exactly 1", st.ByType[EventRunEnd])
	}
}

// TestNopAndOrNop: the disabled recorder reports disabled and OrNop
// normalises nil to it.
func TestNopAndOrNop(t *testing.T) {
	if Nop.Enabled() {
		t.Error("Nop.Enabled() = true")
	}
	// All methods are callable no-ops.
	Nop.Add(RefsRead, 1)
	Nop.SetGauge(FreeRingOccupancy, 1)
	Nop.Observe(StageFlush, time.Second)
	Nop.Emit(&Event{})
	if OrNop(nil) != Nop {
		t.Error("OrNop(nil) != Nop")
	}
	r := NewRun(Options{})
	if OrNop(r) != Recorder(r) {
		t.Error("OrNop(r) != r")
	}
	if !r.Enabled() {
		t.Error("Run.Enabled() = false")
	}
}
