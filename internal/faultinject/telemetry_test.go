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
// campaign with a recorder attached and asserts the telemetry
// contract for failures: every PointError a sweep reports has exactly
// one matching error-attributed event on the stream, and the
// points_failed counter agrees.
func TestCampaignErrorsMirroredInEvents(t *testing.T) {
	points := testPoints()
	var workloads []string
	for _, p := range synth.Workloads(synth.PDP11) {
		workloads = append(workloads, p.Name)
	}
	injections := Plan(campaignSeed, 10, workloads, testRefs, len(points), 2)

	for _, eng := range []sweep.Engine{sweep.Reference, sweep.MultiPass} {
		for _, in := range injections {
			in := in
			t.Run(eng.String()+"/"+in.String(), func(t *testing.T) {
				r := sweep.Request{
					Arch: synth.PDP11, Points: points, Refs: testRefs,
					Engine: eng, Shards: 2, ContinueOnError: true,
				}
				sink := &captureSink{}
				rec := telemetry.NewRun(telemetry.Options{Sink: sink})
				r.Recorder = rec
				ctx := Apply(&r, in)
				res, err := sweep.RunContext(ctx, r)
				if cerr := rec.Close(); cerr != nil {
					t.Fatalf("recorder close: %v", cerr)
				}
				if err != nil {
					// The cancellation fault aborts the sweep; there is no
					// result whose errors could be mirrored.
					return
				}

				var attributed []*telemetry.ErrorAttributed
				for _, ev := range sink.all() {
					if ev.Type == telemetry.EventErrorAttributed {
						attributed = append(attributed, ev.Error)
					}
				}
				if len(attributed) != len(res.Errors) {
					t.Fatalf("%d error-attributed events for %d PointErrors", len(attributed), len(res.Errors))
				}
				if got := rec.Snapshot().Counter(telemetry.PointsFailed); got != uint64(len(res.Errors)) {
					t.Errorf("points_failed = %d, want %d", got, len(res.Errors))
				}

				for _, pe := range res.Errors {
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
				}
			})
		}
	}
}
