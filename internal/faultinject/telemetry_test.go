package faultinject

import (
	"errors"
	"sync"
	"testing"

	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
)

// captureSink collects emitted events in memory.
type captureSink struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (c *captureSink) Write(ev *telemetry.Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, *ev)
	return nil
}

func (c *captureSink) Close() error { return nil }

func (c *captureSink) all() []telemetry.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]telemetry.Event(nil), c.events...)
}

// TestCampaignErrorsMirroredInEvents re-runs the seed-derived fault
// campaign with a recorder attached and asserts the telemetry contract
// for failures: the PointError a failed sweep returns has exactly one
// matching error-attributed event on the stream, and the points_failed
// counter equals the event count.
func TestCampaignErrorsMirroredInEvents(t *testing.T) {
	points, injections := campaign()
	for _, eng := range []sweep.Engine{sweep.Reference, sweep.MultiPass} {
		for _, in := range injections {
			in := in
			t.Run(eng.String()+"/"+in.String(), func(t *testing.T) {
				r := sweep.Request{
					Arch: synth.PDP11, Points: points, Refs: testRefs,
					Engine: eng, Shards: 2,
				}
				sink := &captureSink{}
				rec := telemetry.NewRun(telemetry.Options{Sink: sink})
				r.Recorder = rec
				ctx := Apply(&r, in)
				_, err := sweep.RunContext(ctx, r)
				if cerr := rec.Close(); cerr != nil {
					t.Fatalf("recorder close: %v", cerr)
				}

				var attributed []*telemetry.ErrorAttributed
				for _, ev := range sink.all() {
					if ev.Type == telemetry.EventErrorAttributed {
						attributed = append(attributed, ev.Error)
					}
				}
				if got := rec.Snapshot().Counter(telemetry.PointsFailed); got != uint64(len(attributed)) {
					t.Errorf("points_failed = %d, want the %d error-attributed events", got, len(attributed))
				}
				var pe *sweep.PointError
				if !errors.As(err, &pe) {
					// A clean sweep, or the injected cancellation: nothing
					// failed, so nothing may be attributed.
					if len(attributed) != 0 {
						t.Fatalf("%d error-attributed events, but the sweep returned %v", len(attributed), err)
					}
					return
				}
				point := ""
				if !pe.WorkloadScope() {
					point = pe.Point.String()
				}
				var panicErr *sweep.PanicError
				isPanic := errors.As(pe.Cause, &panicErr)
				matches := 0
				for _, ea := range attributed {
					if ea.Workload == pe.Workload && ea.Point == point &&
						ea.Shard == pe.Shard && ea.Cause == pe.Cause.Error() && ea.Panic == isPanic {
						matches++
					}
				}
				if matches != 1 {
					t.Errorf("PointError %v: %d matching events, want 1", pe, matches)
				}
			})
		}
	}
}
