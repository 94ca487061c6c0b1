package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// spanStream marshals events into a JSONL stream, stamping sequence
// numbers and non-decreasing elapsed times.
func spanStream(t testing.TB, evs ...*Event) string {
	t.Helper()
	var sb strings.Builder
	for i, ev := range evs {
		ev.V = SchemaVersion
		ev.Seq = uint64(i)
		ev.ElapsedMS = int64(i)
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func spanStart(id, parent, name, workload string) *Event {
	return &Event{Type: EventSpanStart, Span: &Span{ID: id, Parent: parent, Name: name, Workload: workload}}
}

func spanEnd(id string) *Event {
	return &Event{Type: EventSpanEnd, SpanEnd: &SpanEnd{ID: id, DurNanos: 10}}
}

func TestValidateStreamSpanNesting(t *testing.T) {
	stream := spanStream(t,
		spanStart("job#1", "", "job", ""),
		spanStart("queue#2", "job#1", "queue", ""),
		spanEnd("queue#2"),
		spanStart("attempt#3", "job#1", "attempt", ""),
		spanStart("workload#4", "attempt#3", "workload", "W"),
		&Event{Type: EventPointDone, PointDone: &PointDone{Workload: "W", Point: "64:4,2"}},
		spanEnd("workload#4"),
		spanEnd("attempt#3"),
		spanEnd("job#1"),
		&Event{Type: EventRunEnd, RunEnd: &RunEnd{Snapshot: &Snapshot{Counters: map[string]uint64{}}}},
	)
	st, err := ValidateStream(strings.NewReader(stream))
	if err != nil {
		t.Fatalf("balanced span stream rejected: %v", err)
	}
	if st.ByType[EventSpanStart] != 4 || st.ByType[EventSpanEnd] != 4 {
		t.Fatalf("span counts %d/%d, want 4/4", st.ByType[EventSpanStart], st.ByType[EventSpanEnd])
	}
}

func TestValidateStreamSpanViolations(t *testing.T) {
	cases := []struct {
		name string
		evs  []*Event
		want string
	}{
		{
			"duplicate span id",
			[]*Event{spanStart("a#1", "", "a", ""), spanEnd("a#1"), spanStart("a#1", "", "a", "")},
			"duplicate span id",
		},
		{
			"parent not open",
			[]*Event{spanStart("kid#1", "ghost#9", "kid", "")},
			"not open",
		},
		{
			"parent already ended",
			[]*Event{
				spanStart("par#1", "", "par", ""), spanEnd("par#1"),
				spanStart("kid#2", "par#1", "kid", ""),
			},
			"not open",
		},
		{
			"end without start",
			[]*Event{spanEnd("never#1")},
			"not open",
		},
		{
			"end with open children",
			[]*Event{
				spanStart("par#1", "", "par", ""),
				spanStart("kid#2", "par#1", "kid", ""),
				spanEnd("par#1"),
			},
			"open children",
		},
		{
			"run-end with open span",
			[]*Event{
				spanStart("job#1", "", "job", ""),
				{Type: EventRunEnd, RunEnd: &RunEnd{Snapshot: &Snapshot{Counters: map[string]uint64{}}}},
			},
			"still open",
		},
		{
			"point-done outside any workload span",
			[]*Event{
				spanStart("job#1", "", "job", ""),
				{Type: EventPointDone, PointDone: &PointDone{Workload: "W", Point: "64:4,2"}},
			},
			"no open span",
		},
		{
			"point-done under wrong workload",
			[]*Event{
				spanStart("w#1", "", "workload", "A"),
				{Type: EventPointDone, PointDone: &PointDone{Workload: "B", Point: "64:4,2"}},
			},
			"no open span",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ValidateStream(strings.NewReader(spanStream(t, c.evs...)))
			if err == nil {
				t.Fatal("invalid span stream accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestValidateStreamPointDoneWithoutSpans: streams from span-less
// producers (the standalone sweep drivers predate spans) stay valid --
// reconciliation only engages once the stream contains spans.
func TestValidateStreamPointDoneWithoutSpans(t *testing.T) {
	stream := spanStream(t,
		&Event{Type: EventPointDone, PointDone: &PointDone{Workload: "W", Point: "64:4,2"}},
	)
	if _, err := ValidateStream(strings.NewReader(stream)); err != nil {
		t.Fatalf("span-less stream rejected: %v", err)
	}
}

func TestActiveSpanNilSafety(t *testing.T) {
	for _, rec := range []Recorder{nil, Nop} {
		sp := StartSpan(rec, Span{Name: "x"})
		if sp != nil {
			t.Fatalf("StartSpan with disabled recorder returned %v, want nil", sp)
		}
		if sp.ID() != "" {
			t.Fatalf("nil span ID = %q, want empty", sp.ID())
		}
		sp.End()          // must not panic
		sp.EndErr("boom") // must not panic
	}
}

func TestContextWithSpan(t *testing.T) {
	ctx := context.Background()
	if id := SpanFromContext(ctx); id != "" {
		t.Fatalf("empty context carries span %q", id)
	}
	if got := ContextWithSpan(ctx, ""); got != ctx {
		t.Fatal("empty id must return the context unchanged")
	}
	if id := SpanFromContext(ContextWithSpan(ctx, "job#7")); id != "job#7" {
		t.Fatalf("round-tripped span id = %q, want job#7", id)
	}
}

// TestRunSpansEndToEnd drives real spans through a live recorder and
// validates the emitted stream: IDs unique, nesting balanced, the
// trace id stamped from Options.TraceID, double-End suppressed.
func TestRunSpansEndToEnd(t *testing.T) {
	var sb strings.Builder
	rec := NewRun(Options{Sink: NewJSONLSink(&sb), TraceID: "fp123"})

	job := StartSpan(rec, Span{Name: "job"})
	if job == nil || job.ID() == "" {
		t.Fatal("live recorder produced inert span")
	}
	att := StartSpan(rec, Span{Name: "attempt", Parent: job.ID(), Detail: "0"})
	wl := StartSpan(rec, Span{Name: "workload", Parent: att.ID(), Workload: "W"})
	wl.EndErr("trace read failed")
	wl.End() // idempotent: must not emit a second span-end
	att.End()
	job.End()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := ValidateStream(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("live span stream invalid: %v\n%s", err, sb.String())
	}
	if st.ByType[EventSpanStart] != 3 || st.ByType[EventSpanEnd] != 3 {
		t.Fatalf("span counts %d/%d, want 3/3 (double End must not re-emit)",
			st.ByType[EventSpanStart], st.ByType[EventSpanEnd])
	}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case EventSpanStart:
			if ev.Span.Trace != "fp123" {
				t.Fatalf("span-start trace %q, want fp123", ev.Span.Trace)
			}
		case EventSpanEnd:
			if ev.SpanEnd.Trace != "fp123" {
				t.Fatalf("span-end trace %q, want fp123", ev.SpanEnd.Trace)
			}
			if ev.SpanEnd.DurNanos < 0 {
				t.Fatalf("negative span duration %d", ev.SpanEnd.DurNanos)
			}
		}
	}
}

func TestWriteSpanReport(t *testing.T) {
	stream := spanStream(t,
		&Event{Type: EventSpanStart, Span: &Span{Trace: "fp9", ID: "job#1", Name: "job"}},
		&Event{Type: EventSpanStart, Span: &Span{Trace: "fp9", ID: "attempt#2", Parent: "job#1", Name: "attempt", Detail: "0"}},
		&Event{Type: EventSpanStart, Span: &Span{Trace: "fp9", ID: "workload#3", Parent: "attempt#2", Name: "workload", Workload: "W"}},
		&Event{Type: EventSpanEnd, SpanEnd: &SpanEnd{Trace: "fp9", ID: "workload#3", DurNanos: 4_000_000}},
		&Event{Type: EventSpanEnd, SpanEnd: &SpanEnd{Trace: "fp9", ID: "attempt#2", DurNanos: 5_000_000, Err: "boom"}},
		&Event{Type: EventSpanEnd, SpanEnd: &SpanEnd{Trace: "fp9", ID: "job#1", DurNanos: 6_000_000}},
		&Event{Type: EventSpanStart, Span: &Span{Trace: "fp9", ID: "orphaned#4", Name: "flush"}},
	)
	var out strings.Builder
	if err := WriteSpanReport(&out, strings.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"trace fp9",
		"job",
		"attempt[0]",
		"workload=W",
		"err=boom",
		"(unfinished)", // orphaned#4 never ended
		"stage totals",
		"* ", // critical-path marker
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	// Empty stream: still a report, not an error.
	out.Reset()
	if err := WriteSpanReport(&out, strings.NewReader("")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no spans") {
		t.Errorf("empty report = %q, want a 'no spans' notice", out.String())
	}
}
