package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// MaxShards bounds the per-shard aggregate array.  Shard counts come
// from GOMAXPROCS, so 256 is far beyond any real machine this runs on;
// higher indexes are clamped into the last cell rather than dropped.
// The sweep service refuses requests for more shards than this.
const MaxShards = 256

// shardCell is one shard's atomics.
type shardCell struct {
	refs      atomic.Uint64
	busyNanos atomic.Int64
}

// Options configures a Run recorder.  The zero value is a pure counter
// recorder: no events, no heartbeat.
type Options struct {
	// Sink receives emitted events; nil discards them.
	Sink Sink
	// Heartbeat, when positive, emits a heartbeat event (and calls
	// OnHeartbeat) at this interval until Close.
	Heartbeat time.Duration
	// OnHeartbeat, if set, observes each heartbeat snapshot; the
	// progress line hangs off this.
	OnHeartbeat func(*Snapshot)
	// TraceID, when set, is stamped into every emitted span event that
	// does not carry its own trace: the job fingerprint for service
	// jobs, the config fingerprint for CLI sweeps.
	TraceID string
}

// Run is the live Recorder: pre-sized atomic arrays for counters,
// gauges, stage histograms and shard aggregates, plus an optional event
// sink and heartbeat.  All methods are safe for concurrent use.
type Run struct {
	start      time.Time
	counters   [numCounters]atomic.Uint64
	gauges     [numGauges]atomic.Int64
	stageHists [numStages]Histogram
	hists      [numHists]Histogram
	shards     [MaxShards]shardCell
	nshards    atomic.Int64 // highest shard index observed + 1
	seq        atomic.Uint64

	opts Options

	// emitMu makes seq stamping and the sink write one critical
	// section, so events reach the sink in seq order (ValidateStream
	// requires strictly increasing seq in file order).  The no-sink
	// path skips it and uses the atomic alone.
	emitMu sync.Mutex

	hbStop chan struct{}
	hbDone sync.WaitGroup
	closed atomic.Bool
}

// NewRun returns a live recorder and starts its heartbeat (if any).
func NewRun(opts Options) *Run {
	r := &Run{start: time.Now(), opts: opts, hbStop: make(chan struct{})}
	if opts.Heartbeat > 0 {
		r.hbDone.Add(1)
		go r.heartbeatLoop(opts.Heartbeat)
	}
	return r
}

// Enabled implements Recorder.
func (r *Run) Enabled() bool { return true }

// Add implements Recorder.
func (r *Run) Add(c Counter, n uint64) {
	if c >= 0 && c < numCounters {
		r.counters[c].Add(n)
	}
}

// SetGauge implements Recorder.
func (r *Run) SetGauge(g Gauge, v int64) {
	if g >= 0 && g < numGauges {
		r.gauges[g].Store(v)
	}
}

// Observe implements Recorder: the duration lands in the stage's
// latency histogram, whose count and sum are the stage's observation
// count and total time.
func (r *Run) Observe(s Stage, d time.Duration) {
	if s >= 0 && s < numStages {
		r.stageHists[s].ObserveDur(d)
	}
}

// ObserveDur implements Recorder.
func (r *Run) ObserveDur(h Hist, d time.Duration) {
	if h >= 0 && h < numHists {
		r.hists[h].ObserveDur(d)
	}
}

// ShardObserve implements Recorder.
func (r *Run) ShardObserve(shard int, refs uint64, busy time.Duration) {
	if shard < 0 {
		return
	}
	if shard >= MaxShards {
		shard = MaxShards - 1
	}
	r.shards[shard].refs.Add(refs)
	r.shards[shard].busyNanos.Add(int64(busy))
	for {
		n := r.nshards.Load()
		if int64(shard) < n || r.nshards.CompareAndSwap(n, int64(shard)+1) {
			return
		}
	}
}

// Emit implements Recorder: stamps the event and writes it to the
// sink.  Stamping and the sink write share one critical section so
// concurrent emitters (shard workers, the heartbeat goroutine) cannot
// interleave out of seq order in the stream.  A sink failure
// increments EventsDropped and is otherwise swallowed -- telemetry
// never fails a simulation.
func (r *Run) Emit(ev *Event) {
	ev.V = SchemaVersion
	if r.opts.TraceID != "" {
		if ev.Span != nil && ev.Span.Trace == "" {
			ev.Span.Trace = r.opts.TraceID
		}
		if ev.SpanEnd != nil && ev.SpanEnd.Trace == "" {
			ev.SpanEnd.Trace = r.opts.TraceID
		}
	}
	if r.opts.Sink == nil {
		ev.Seq = r.seq.Add(1) - 1
		ev.ElapsedMS = time.Since(r.start).Milliseconds()
		return
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	ev.Seq = r.seq.Add(1) - 1
	ev.ElapsedMS = time.Since(r.start).Milliseconds()
	if err := r.opts.Sink.Write(ev); err != nil {
		r.counters[EventsDropped].Add(1)
	}
}

// Elapsed is the wall time since the recorder was created.
func (r *Run) Elapsed() time.Duration { return time.Since(r.start) }

// Snapshot copies the recorder's current state.
func (r *Run) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters: make(map[string]uint64, numCounters),
		Gauges:   make(map[string]int64, numGauges),
		StagesMS: make(map[string]float64, numStages),
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := r.counters[c].Load(); v != 0 {
			s.Counters[c.String()] = v
		}
	}
	for g := Gauge(0); g < numGauges; g++ {
		if v := r.gauges[g].Load(); v != 0 {
			s.Gauges[g.String()] = v
		}
	}
	for st := Stage(0); st < numStages; st++ {
		hs := r.stageHists[st].Snap()
		if hs == nil {
			continue
		}
		if hs.SumNanos != 0 {
			s.StagesMS[st.String()] = float64(hs.SumNanos) / 1e6
		}
		if s.StagesN == nil {
			s.StagesN = make(map[string]uint64, numStages)
		}
		s.StagesN[st.String()] = hs.Count
		if s.Hists == nil {
			s.Hists = make(map[string]*HistSnap)
		}
		s.Hists["stage_"+st.String()] = hs
	}
	for h := Hist(0); h < numHists; h++ {
		if hs := r.hists[h].Snap(); hs != nil {
			if s.Hists == nil {
				s.Hists = make(map[string]*HistSnap)
			}
			s.Hists[h.String()] = hs
		}
	}
	for i := int64(0); i < r.nshards.Load(); i++ {
		s.Shards = append(s.Shards, ShardSnap{
			Shard:  int(i),
			Refs:   r.shards[i].refs.Load(),
			BusyMS: float64(r.shards[i].busyNanos.Load()) / 1e6,
		})
	}
	return s
}

// heartbeatLoop emits a heartbeat event per tick until Close.
func (r *Run) heartbeatLoop(every time.Duration) {
	defer r.hbDone.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.heartbeat()
		case <-r.hbStop:
			return
		}
	}
}

// heartbeat emits one heartbeat event and invokes the callback.
func (r *Run) heartbeat() {
	snap := r.Snapshot()
	r.Emit(&Event{Type: EventHeartbeat, Heartbeat: &Heartbeat{Snapshot: snap}})
	if r.opts.OnHeartbeat != nil {
		r.opts.OnHeartbeat(snap)
	}
}

// Close finalises the recorder for a completed run; see CloseInterrupted.
func (r *Run) Close() error { return r.CloseInterrupted(false) }

// CloseInterrupted stops the heartbeat, emits one final beat (when a
// heartbeat consumer is configured) followed by the terminal run-end
// event, and closes the sink.  The heartbeat goroutine is fully joined
// before the run-end event is stamped, and Emit serialises the sink, so
// no heartbeat can ever land after the terminal event -- ValidateStream
// enforces exactly that ordering on the written stream.  interrupted
// marks a run cut short by a signal, cancellation or drain.  Safe to
// call twice; the recorder's counters remain readable afterwards.
func (r *Run) CloseInterrupted(interrupted bool) error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(r.hbStop)
	r.hbDone.Wait()
	if r.opts.Heartbeat > 0 || r.opts.OnHeartbeat != nil {
		r.heartbeat()
	}
	if r.opts.Sink != nil {
		r.Emit(&Event{Type: EventRunEnd, RunEnd: &RunEnd{Interrupted: interrupted, Snapshot: r.Snapshot()}})
		return r.opts.Sink.Close()
	}
	return nil
}
