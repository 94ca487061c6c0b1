package sweep

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
	"subcache/internal/trace"
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

func (c *captureSink) byType(typ string) []telemetry.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []telemetry.Event
	for _, ev := range c.events {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

// telemetryRequest is the shared shape of this file's sweeps: big
// enough to span multiple trace chunks, sharded wider than the
// machine so the race detector sees real contention.
func telemetryRequest() Request {
	return Request{
		Arch:   synth.PDP11,
		Points: Grid([]int{64, 256}, 2),
		Refs:   2*trace.ChunkRefs + 100,
		Engine: MultiPass,
		Shards: 8,
	}
}

// TestTelemetryDoesNotPerturbResults is the package's observation-only
// contract (named in the telemetry package doc): results with a live
// recorder attached are bit-identical to results without one.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	plain, err := Run(telemetryRequest())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	rec := telemetry.NewRun(telemetry.Options{Sink: telemetry.NewJSONLSink(&buf)})
	req := telemetryRequest()
	req.Recorder = rec
	instr, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(instr.Runs, plain.Runs) {
		t.Error("instrumented Runs differ from uninstrumented")
	}
	if !reflect.DeepEqual(instr.Summaries, plain.Summaries) {
		t.Error("instrumented Summaries differ from uninstrumented")
	}
	if instr.TracePasses != plain.TracePasses {
		t.Errorf("TracePasses = %d, want %d", instr.TracePasses, plain.TracePasses)
	}
}

// TestTelemetryCountersDeterministic: two identical instrumented runs
// count exactly the same work (the counters are work measures, not
// timing measures), the counters obey the run's structure, and the
// emitted stream is schema-valid.
func TestTelemetryCountersDeterministic(t *testing.T) {
	run := func() (*telemetry.Snapshot, *bytes.Buffer, *Result) {
		var buf bytes.Buffer
		sink := telemetry.NewJSONLSink(&buf)
		rec := telemetry.NewRun(telemetry.Options{Sink: sink})
		req := telemetryRequest()
		req.Recorder = rec
		res, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return rec.Snapshot(), &buf, res
	}

	s1, buf1, res := run()
	s2, _, _ := run()
	if !reflect.DeepEqual(s1.Counters, s2.Counters) {
		t.Errorf("counters differ across identical runs\n run 1: %v\n run 2: %v", s1.Counters, s2.Counters)
	}

	req := telemetryRequest()
	workloads := len(synth.Workloads(req.Arch))
	planned := uint64(len(req.Points) * workloads)
	if got := s1.Counter(telemetry.PointsPlanned); got != planned {
		t.Errorf("points_planned = %d, want %d", got, planned)
	}
	if got := s1.Counter(telemetry.PointsCompleted); got != planned {
		t.Errorf("points_completed = %d, want %d (no failures injected)", got, planned)
	}
	if s1.Counter(telemetry.PointsFailed) != 0 || s1.Counter(telemetry.EventsDropped) != 0 {
		t.Errorf("clean run counted failures: %v", s1.Counters)
	}
	// Every workload's word trace is read once and feeds every family,
	// however the families are bundled, and every workload has the same
	// families, so refs_simulated is refs_read times the families per
	// workload.
	refsRead := s1.Counter(telemetry.RefsRead)
	refsSim := s1.Counter(telemetry.RefsSimulated)
	perWorkload := s1.Counter(telemetry.FamiliesFlushed) / uint64(workloads)
	if refsRead == 0 || perWorkload == 0 || refsSim != refsRead*perWorkload {
		t.Errorf("refs_simulated %d, want refs_read %d x %d families per workload", refsSim, refsRead, perWorkload)
	}
	if s1.Counter(telemetry.ChunksBroadcast) == 0 {
		t.Error("sharded run broadcast no chunks")
	}
	// Each workload's producer observes its read and broadcast stages
	// once, at end of stream.  The word source generates packed words
	// directly, so there is no separate pack stage.
	for _, h := range []telemetry.Hist{telemetry.StageTraceRead, telemetry.StageBroadcast} {
		if hs := s1.Hist(h); hs == nil || hs.Count != uint64(workloads) {
			t.Errorf("%s = %+v, want one observation per workload (%d)", h, hs, workloads)
		}
	}
	if hs, ok := s1.Hists["stage_pack"]; ok {
		t.Errorf("retired stage pack observed %d times", hs.Count)
	}
	// The shard-stat events cover the fed references exactly once per
	// shard.
	var shardRefs uint64
	for _, line := range bytes.Split(bytes.TrimSpace(buf1.Bytes()), []byte("\n")) {
		var ev telemetry.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.ShardStat != nil {
			shardRefs += ev.ShardStat.Refs
		}
	}
	if want := refsRead * uint64(req.Shards); shardRefs != want {
		t.Errorf("shard-stat refs sum to %d, want refs_read x shards = %d", shardRefs, want)
	}

	// The stream is schema-valid and structurally complete: one
	// run-start, one point-done per completed pair, one shard-stat per
	// (workload, shard).
	st, err := telemetry.ValidateStream(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatalf("emitted stream invalid: %v", err)
	}
	if st.ByType[telemetry.EventRunStart] != 1 {
		t.Errorf("run-start events = %d, want 1", st.ByType[telemetry.EventRunStart])
	}
	if got := st.ByType[telemetry.EventPointDone]; got != int(planned) {
		t.Errorf("point-done events = %d, want %d", got, planned)
	}
	if got := st.ByType[telemetry.EventShardStat]; got != workloads*req.Shards {
		t.Errorf("shard-stat events = %d, want %d", got, workloads*req.Shards)
	}
	if st.ByType[telemetry.EventErrorAttributed] != 0 {
		t.Errorf("clean run emitted %d error events", st.ByType[telemetry.EventErrorAttributed])
	}
	_ = res
}

// TestTelemetryDecodeStage: a shard decodes broadcast chunks only for
// the reference caches it hosts, so the decode stage is observed once
// per workload by each such shard and never on a run with none.
func TestTelemetryDecodeStage(t *testing.T) {
	oblOnSub2 := func(c *cache.Config) {
		if c.SubBlockSize == 2 {
			c.PrefetchOBL = true
		}
	}
	for _, tc := range []struct {
		name     string
		engine   Engine
		shards   int
		override func(*cache.Config)
		want     uint64 // decode observations per workload
	}{
		{"families only", MultiPass, 2, nil, 0},
		{"reference caches on both shards", Reference, 2, nil, 2},
		{"families beside fallback caches", MultiPass, 1, oblOnSub2, 1},
	} {
		rec := telemetry.NewRun(telemetry.Options{})
		req := telemetryRequest()
		req.Engine, req.Shards, req.Override, req.Recorder = tc.engine, tc.shards, tc.override, rec
		if _, err := Run(req); err != nil {
			t.Fatal(err)
		}
		rec.Close()
		s := rec.Snapshot()
		want := tc.want * uint64(len(synth.Workloads(req.Arch)))
		var got uint64
		hs := s.Hist(telemetry.StageDecode)
		if hs != nil {
			got = hs.Count
		}
		if got != want || (want == 0 && hs != nil) {
			t.Errorf("%s: stage_decode observed %d times (present %v), want %d", tc.name, got, hs != nil, want)
		}
	}
}

// TestTelemetryCheckpointCounters: the first run journals one record
// per workload; a resumed run restores every pair, counting resumes
// instead of completions and marking its point-done events.
func TestTelemetryCheckpointCounters(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "sweep.ckpt")
	pts := []Point{
		{Net: 256, Block: 16, Sub: 8},
		{Net: 256, Block: 16, Sub: 2},
		{Net: 1024, Block: 16, Sub: 8},
	}
	base := Request{Arch: synth.PDP11, Points: pts, Refs: 20000, Engine: MultiPass, Checkpoint: ck}
	workloads := uint64(len(synth.Workloads(base.Arch)))
	planned := uint64(len(pts)) * workloads

	sink1 := &captureSink{}
	rec1 := telemetry.NewRun(telemetry.Options{Sink: sink1})
	req := base
	req.Recorder = rec1
	if _, err := Run(req); err != nil {
		t.Fatal(err)
	}
	rec1.Close()
	s1 := rec1.Snapshot()
	if hs := s1.Hist(telemetry.StageCheckpoint); hs == nil || hs.Count != workloads || hs.SumNanos == 0 {
		t.Errorf("first run stage_checkpoint = %+v, want %d timed appends", hs, workloads)
	}
	if s1.Counter(telemetry.PointsResumed) != 0 || s1.Counter(telemetry.PointsCompleted) != planned {
		t.Errorf("first run resumed/completed = %d/%d, want 0/%d",
			s1.Counter(telemetry.PointsResumed), s1.Counter(telemetry.PointsCompleted), planned)
	}

	sink2 := &captureSink{}
	rec2 := telemetry.NewRun(telemetry.Options{Sink: sink2})
	req = base
	req.Recorder = rec2
	res, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	rec2.Close()
	if res.Resumed != int(workloads) {
		t.Fatalf("second run resumed %d workloads, want %d", res.Resumed, workloads)
	}
	s2 := rec2.Snapshot()
	if got := s2.Counter(telemetry.PointsResumed); got != planned {
		t.Errorf("second run points_resumed = %d, want %d", got, planned)
	}
	if s2.Counter(telemetry.PointsCompleted) != 0 || s2.Hist(telemetry.StageCheckpoint) != nil {
		t.Errorf("second run completed %d and stage_checkpoint %+v, want 0 and none",
			s2.Counter(telemetry.PointsCompleted), s2.Hist(telemetry.StageCheckpoint))
	}
	done := sink2.byType(telemetry.EventPointDone)
	if len(done) != int(planned) {
		t.Fatalf("second run point-done events = %d, want %d", len(done), planned)
	}
	for _, ev := range done {
		if !ev.PointDone.Resumed {
			t.Errorf("resumed run emitted unresumed point-done: %+v", ev.PointDone)
		}
	}
}

// TestTelemetryRunStartShards: run-start reports the shard workers each
// workload ran on -- the count an auto request resolves to as much as an
// explicit one -- never the 0 that asks for auto.
func TestTelemetryRunStartShards(t *testing.T) {
	for _, tc := range []struct {
		name             string
		shards, par, ran int
	}{
		{"auto", 0, 3, 3},
		{"explicit", 2, 3, 2},
	} {
		sink := &captureSink{}
		rec := telemetry.NewRun(telemetry.Options{Sink: sink})
		req := telemetryRequest()
		req.Workloads = []string{"ED"}
		req.Shards, req.Parallelism, req.Recorder = tc.shards, tc.par, rec
		if _, err := Run(req); err != nil {
			t.Fatal(err)
		}
		rec.Close()
		starts := sink.byType(telemetry.EventRunStart)
		if len(starts) != 1 {
			t.Fatalf("%s: %d run-start events, want 1", tc.name, len(starts))
		}
		if got := starts[0].RunStart.Shards; got != tc.ran {
			t.Errorf("%s: run-start shards = %d, want %d", tc.name, got, tc.ran)
		}
		if got := len(sink.byType(telemetry.EventShardStat)); got != tc.ran {
			t.Errorf("%s: %d shard-stat events, want %d", tc.name, got, tc.ran)
		}
	}
}
