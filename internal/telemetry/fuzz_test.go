package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzValidateStream: arbitrary bytes must never panic the event-stream
// validator.  A stream it accepts has consistent tallies, and every
// prefix of it that ends at a line break is accepted too: a stream
// still being written validates up to its last whole line.  The seeds
// are TestValidateStream's and TestValidateStreamSpanNesting's streams.
func FuzzValidateStream(f *testing.F) {
	var sb strings.Builder
	for _, ev := range sampleEvents() {
		b, err := json.Marshal(ev)
		if err != nil {
			f.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	f.Add([]byte(sb.String()))
	f.Add([]byte(spanStream(f,
		spanStart("job#1", "", "job", ""),
		spanStart("workload#2", "job#1", "workload", "W"),
		&Event{Type: EventPointDone, PointDone: &PointDone{Workload: "W", Point: "64:4,2"}},
		spanEnd("workload#2"),
		spanEnd("job#1"),
		&Event{Type: EventRunEnd, RunEnd: &RunEnd{Snapshot: &Snapshot{Counters: map[string]uint64{}}}},
	)))
	f.Add([]byte("{not json\n"))
	f.Add([]byte(`{"v":1,"type":"point-done","seq":0}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ValidateStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := 0
		for _, c := range st.ByType {
			n += c
		}
		if n != st.Events {
			t.Fatalf("Events = %d, but ByType sums to %d", st.Events, n)
		}
		for i, b := range data {
			if b != '\n' {
				continue
			}
			if _, err := ValidateStream(bytes.NewReader(data[:i+1])); err != nil {
				t.Fatalf("stream accepted, but its first %d bytes are rejected: %v", i+1, err)
			}
		}
	})
}

// FuzzValidatePromText: arbitrary bytes must never panic the strict
// exposition parser, and an exposition it accepts has one series per
// sample (it rejects duplicate series) and no more families than
// samples.  The seeds are the writer's own exposition and the benign
// and rejected texts of the ValidatePromText tests.
func FuzzValidatePromText(f *testing.F) {
	var b strings.Builder
	if err := WritePromText(&b, "test", promTestSnapshot(),
		map[string]float64{"workers": 4},
		map[string]string{"version": `quo"te\back`, "go_version": "go1.x"}); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(b.String()))
	f.Add([]byte("# just a comment\n" +
		"# HELP a A counter.\n# TYPE a counter\na 1 1700000000000\n" +
		"b{msg=\"line\\nbreak \\\"q\\\" back\\\\slash\"} 2\n"))
	f.Add([]byte("# TYPE h histogram\n" +
		"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"0.2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"))
	f.Add([]byte("a{x=unquoted} 1\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ValidatePromText(bytes.NewReader(data))
		if err != nil {
			return
		}
		if st.Series != st.Samples || st.Families > st.Samples {
			t.Fatalf("accepted exposition with %d families, %d series and %d samples", st.Families, st.Series, st.Samples)
		}
	})
}
