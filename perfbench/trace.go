package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"subcache/internal/cache"
	"subcache/internal/kernelbench"
	"subcache/internal/metrics"
	"subcache/internal/multipass"
	"subcache/internal/service"
	"subcache/internal/stackdist"
	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
	"subcache/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(parent int, name, detail string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Detail: detail, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// selfTimes sums each span's self time -- its duration minus the part
// its children cover -- by name, then detail.  Children of one span are
// sequential, so their durations never overlap.
func (t *tracer) selfTimes() map[string]map[string]int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	out := map[string]map[string]int64{}
	for i, s := range t.spans {
		if out[s.Name] == nil {
			out[s.Name] = map[string]int64{}
		}
		out[s.Name][s.Detail] += self[i]
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sum(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

func blockDetail(b int) string { return fmt.Sprintf("block%d", b) }

// lanes is one kernel unit of the replay with the config indexes it
// carries.
type lanes[K any] struct {
	k      K
	idxs   []int
	detail string
}

func pick(cfgs []cache.Config, idxs []int) []cache.Config {
	out := make([]cache.Config, len(idxs))
	for j, k := range idxs {
		out[j] = cfgs[k]
	}
	return out
}

// replayOp feeds one workload's stream serially through the public
// entry points of every layer the default engine uses -- generation,
// split, pack, multipass families and reference fallbacks -- and, on
// the same packed chunks, through the stack-distance groups, with a
// span around each call.  It returns the default path's runs and the
// stack-distance runs, keyed by point, and the word references fed.
func replayOp(tr *tracer, parent int, req sweep.Request, prof synth.Profile) (runs, stackRuns map[sweep.Point]metrics.Run, words int, err error) {
	op := tr.begin(parent, "op", req.Arch.String()+"/"+prof.Name)
	defer tr.end(op)
	cfgs := make([]cache.Config, len(req.Points))
	for i, p := range req.Points {
		cfgs[i] = p.Config(req.Arch)
	}
	ws := req.Arch.WordSize()

	s := tr.begin(op, "synth.NewWordSource", "")
	src, err := synth.NewWordSource(prof, req.Refs, ws)
	tr.end(s)
	if err != nil {
		return nil, nil, 0, err
	}

	s = tr.begin(op, "multipass.Group", "")
	fams, rest := multipass.Group(cfgs)
	tr.end(s)
	var mp []lanes[*multipass.Family]
	for _, idxs := range fams {
		fc := pick(cfgs, idxs)
		d := blockDetail(fc[0].BlockSize)
		s = tr.begin(op, "multipass.New", d)
		f, err := multipass.New(fc)
		tr.end(s)
		if err != nil {
			return nil, nil, 0, err
		}
		mp = append(mp, lanes[*multipass.Family]{f, idxs, d})
	}
	var rc []lanes[*cache.Cache]
	for _, k := range rest {
		s = tr.begin(op, "cache.New", "")
		c, err := cache.New(cfgs[k])
		tr.end(s)
		if err != nil {
			return nil, nil, 0, err
		}
		rc = append(rc, lanes[*cache.Cache]{c, []int{k}, ""})
	}
	s = tr.begin(op, "stackdist.Group", "")
	groups, _ := stackdist.Group(cfgs)
	tr.end(s)
	var sd []lanes[*stackdist.Engine]
	for _, idxs := range groups {
		gc := pick(cfgs, idxs)
		d := blockDetail(gc[0].BlockSize)
		s = tr.begin(op, "stackdist.NewEngine", d)
		e, err := stackdist.NewEngine(gc, 1, 0)
		tr.end(s)
		if err != nil {
			return nil, nil, 0, err
		}
		sd = append(sd, lanes[*stackdist.Engine]{e, idxs, d})
	}

	buf := make([]trace.Ref, trace.ChunkRefs)
	packed := make([]uint64, trace.ChunkRefs)
	shift := uint(bits.TrailingZeros(uint(ws)))
	for {
		s = tr.begin(op, "trace.ReadChunk", "")
		n, rerr := trace.ReadChunk(src, buf)
		tr.end(s)
		if n > 0 {
			refs, pk := buf[:n], packed[:n]
			s = tr.begin(op, "trace.PackRefs", "")
			trace.PackRefs(pk, refs, shift)
			tr.end(s)
			for _, u := range mp {
				s = tr.begin(op, "multipass.AccessBatchPacked", u.detail)
				u.k.AccessBatchPacked(refs, pk)
				tr.end(s)
			}
			for _, u := range rc {
				s = tr.begin(op, "cache.AccessBatch", "")
				u.k.AccessBatch(refs)
				tr.end(s)
			}
			for _, u := range sd {
				s = tr.begin(op, "stackdist.AccessBatchPacked", u.detail)
				u.k.AccessBatchPacked(refs, pk)
				tr.end(s)
			}
			words += n
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, nil, 0, rerr
		}
	}

	runs = map[sweep.Point]metrics.Run{}
	for _, u := range mp {
		s = tr.begin(op, "multipass.FlushUsage", u.detail)
		u.k.FlushUsage()
		tr.end(s)
		for j, k := range u.idxs {
			runs[req.Points[k]] = metrics.NewRun(prof.Name, u.k.Config(j), u.k.Stats(j))
		}
	}
	for _, u := range rc {
		s = tr.begin(op, "cache.FlushUsage", "")
		u.k.FlushUsage()
		tr.end(s)
		runs[req.Points[u.idxs[0]]] = metrics.NewRun(prof.Name, u.k.Config(), u.k.Stats())
	}
	stackRuns = map[sweep.Point]metrics.Run{}
	for _, u := range sd {
		s = tr.begin(op, "stackdist.FlushUsage", u.detail)
		u.k.FlushUsage()
		tr.end(s)
		for j, k := range u.idxs {
			stackRuns[req.Points[k]] = metrics.NewRun(prof.Name, u.k.Config(j), u.k.Stats(j))
		}
	}
	return runs, stackRuns, words, nil
}

// tracedRun measures the per-layer metrics for a workload: kernel
// hit/miss costs, the serial layer replay of ops, the executor's
// overlap, CPU use and allocations over the same ops, the recorder's
// cost, and the service split over wire.
func tracedRun(e *env, ops []sweep.Request, wire []service.SweepRequest) (*report, error) {
	ctx := context.Background()
	ms := map[string]metric{}
	var c checks
	attempted, failed := 0, 0

	cal := kernelbench.Calibrate()
	set(ms, "cal_ns", cal)
	for _, k := range []struct {
		eng    sweep.Engine
		prefix string
	}{{sweep.Reference, "cache"}, {sweep.MultiPass, "multipass"}, {sweep.StackDist, "stackdist"}} {
		hit, miss, err := kernelbench.Bench(k.eng)
		if err != nil {
			return nil, err
		}
		set(ms, k.prefix+".hit_ns", hit)
		set(ms, k.prefix+".miss_ns", miss)
	}

	// The executor, untraced: the ops through sweep.RunContext, with no
	// recorder and with a live one, alternating which goes first.
	const rounds = 3
	results := make([]*sweep.Result, len(ops))
	var plain, recorded []float64
	var plainCPU, plainWall time.Duration
	var mallocs, allocBytes uint64
	pass := func(recorder bool) (time.Duration, error) {
		start := time.Now()
		for i, op := range ops {
			var rec *telemetry.Run
			if recorder {
				rec = telemetry.NewRun(telemetry.Options{})
				op.Recorder = rec
			}
			attempted++
			res, err := sweep.RunContext(ctx, op)
			if rec != nil {
				rec.Close()
			}
			if err != nil {
				return 0, err
			}
			if results[i] == nil {
				results[i] = res
			} else if !reflect.DeepEqual(res.Runs, results[i].Runs) {
				failed++
				c.fail("%v: results differ between executor passes", op.Arch)
			}
		}
		return time.Since(start), nil
	}
	for r := 0; r < rounds; r++ {
		for _, recorder := range []bool{r%2 == 1, r%2 == 0} {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c0 := cpuTime()
			d, err := pass(recorder)
			if err != nil {
				return nil, err
			}
			if recorder {
				recorded = append(recorded, float64(d))
				continue
			}
			plainCPU += cpuTime() - c0
			plainWall += d
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			allocBytes += m1.TotalAlloc - m0.TotalAlloc
			plain = append(plain, float64(d))
		}
	}

	// The serial replay.
	tr := &tracer{t0: time.Now()}
	root := tr.begin(0, "replay", e.workload)
	words := 0
	for i, op := range ops {
		for pi, prof := range profilesOf(op) {
			attempted++
			runs, stackRuns, n, err := replayOp(tr, root, op, prof)
			if err != nil {
				return nil, err
			}
			words += n
			for p, run := range runs {
				want := results[i].Runs[p][pi]
				sr, stacked := stackRuns[p]
				if !reflect.DeepEqual(run, want) || (stacked && !reflect.DeepEqual(sr, want)) {
					failed++
					c.fail("replay %v %s %s differs from the sweep", op.Arch, prof.Name, p)
					break
				}
			}
		}
	}
	tr.end(root)
	if err := tr.write(e.spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), e.spans)

	self := tr.selfTimes()
	perRef := func(ns int64) float64 { return float64(ns) / float64(words) }
	gen := sum(self["synth.NewWordSource"]) + sum(self["trace.ReadChunk"])
	pack := sum(self["trace.PackRefs"])
	mpKernel := sum(self["multipass.AccessBatchPacked"])
	mpFlush := sum(self["multipass.FlushUsage"])
	mpPlan := sum(self["multipass.Group"]) + sum(self["multipass.New"])
	sdKernel := sum(self["stackdist.AccessBatchPacked"])
	sdFlush := sum(self["stackdist.FlushUsage"])
	sdPlan := sum(self["stackdist.Group"]) + sum(self["stackdist.NewEngine"])
	fallback := sum(self["cache.New"]) + sum(self["cache.AccessBatch"]) + sum(self["cache.FlushUsage"])
	wall := tr.spans[root-1].End - tr.spans[root-1].Start
	defaultPath := gen + pack + mpKernel + mpFlush + mpPlan + fallback
	unaccounted := wall - defaultPath - sdKernel - sdFlush - sdPlan

	set(ms, "synth.generate_ns_per_ref", perRef(gen))
	set(ms, "trace.pack_ns_per_ref", perRef(pack))
	for _, b := range blockSizes {
		set(ms, fmt.Sprintf("multipass.block%d_ns_per_ref", b), perRef(self["multipass.AccessBatchPacked"][blockDetail(b)]))
		set(ms, fmt.Sprintf("stackdist.block%d_ns_per_ref", b), perRef(self["stackdist.AccessBatchPacked"][blockDetail(b)]))
	}
	set(ms, "multipass.kernel_ns_per_ref", perRef(mpKernel))
	set(ms, "multipass.flush_ns_per_ref", perRef(mpFlush))
	set(ms, "multipass.plan_ns_per_ref", perRef(mpPlan))
	set(ms, "stackdist.kernel_ns_per_ref", perRef(sdKernel))
	set(ms, "stackdist.flush_ns_per_ref", perRef(sdFlush))
	set(ms, "stackdist.plan_ns_per_ref", perRef(sdPlan))
	set(ms, "cache.fallback_ns_per_ref", perRef(fallback))
	set(ms, "replay.wall_ns_per_ref", perRef(wall))
	set(ms, "replay.unaccounted_ns_per_ref", perRef(unaccounted))

	sweepWall := median(plain)
	set(ms, "sweep.overlap", float64(defaultPath)/sweepWall)
	set(ms, "sweep.cpu_util", float64(plainCPU)/float64(plainWall))
	set(ms, "sweep.allocs_per_ref", float64(mallocs)/float64(rounds*words))
	set(ms, "sweep.alloc_bytes_per_ref", float64(allocBytes)/float64(rounds*words))
	set(ms, "telemetry.recorder_ns_per_ref", (median(recorded)-sweepWall)/float64(words))

	fmt.Printf("where ns_per_ref goes (%s, %d word refs, cal_ns %.3f)\n", e.workload, words, cal)
	fmt.Printf("  sweep.RunContext wall        %8.1f ns/ref\n", sweepWall/float64(words))
	fmt.Printf("  serial replay wall           %8.1f ns/ref\n", perRef(wall))
	for _, row := range []struct {
		name string
		ns   int64
	}{
		{"synth generate+split", gen}, {"trace pack", pack},
		{"multipass kernel", mpKernel}, {"multipass flush", mpFlush}, {"multipass plan", mpPlan},
		{"cache fallback", fallback},
		{"stackdist kernel", sdKernel}, {"stackdist flush", sdFlush}, {"stackdist plan", sdPlan},
		{"unaccounted", unaccounted},
	} {
		fmt.Printf("  %-28s %8.1f ns/ref %5.1f%% of replay\n", row.name, perRef(row.ns), 100*float64(row.ns)/float64(wall))
	}

	split, n, nfail, err := serviceSplit(filepath.Join(e.scratch, "sweepd"), wire, &c)
	if err != nil {
		return nil, err
	}
	attempted += n
	failed += nfail
	for k, v := range split {
		set(ms, k, v)
	}
	return &report{Correct: len(c) == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

// serviceSplit sends wire to a fresh in-process sweepd one request at a
// time in the two-call form -- POST without wait, then GET ?wait=1 on a
// 202 -- times both calls, runs each fresh request directly through
// sweep.RunContext for comparison, and reads sweepd's own latency
// histograms from /v1/stats.
func serviceSplit(dir string, wire []service.SweepRequest, c *checks) (out map[string]float64, attempted, failed int, err error) {
	d, err := startSweepd(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	defer d.stop()
	var admit, complete, direct latencies
	var kb []float64
	hits := 0
	for _, w := range wire {
		attempted++
		t0 := time.Now()
		code, resp, err := d.post(w, false)
		switch {
		case err == nil && code == http.StatusOK && resp.Cached:
			hits++
			kb = append(kb, float64(len(resp.Result))/1024)
			continue
		case err != nil || code != http.StatusAccepted:
			failed++
			c.fail("split: submit %+v: status %d, %v", w, code, err)
			continue
		}
		admit.add(time.Since(t0))
		t1 := time.Now()
		code, resp, err = d.wait(resp.ID)
		complete.add(time.Since(t1))
		if err != nil || code != http.StatusOK {
			failed++
			c.fail("split: wait %s: status %d, %v", resp.ID, code, err)
			continue
		}
		kb = append(kb, float64(len(resp.Result))/1024)
		req, err := resolve(w)
		if err != nil {
			return nil, 0, 0, err
		}
		t2 := time.Now()
		res, err := sweep.RunContext(context.Background(), req)
		direct.add(time.Since(t2))
		if err != nil {
			return nil, 0, 0, err
		}
		if err := sameAsDirect(res, resp.Result); err != nil {
			failed++
			c.fail("split: %+v: %v", w, err)
		}
	}

	resp, err := d.ts.Client().Get(d.ts.URL + "/v1/stats")
	if err != nil {
		return nil, 0, 0, err
	}
	var stats struct {
		Telemetry telemetry.Snapshot `json:"telemetry"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return nil, 0, 0, err
	}
	p50 := func(name string) float64 { return stats.Telemetry.Hists[name].Quantile(0.5) / 1e6 }
	out = map[string]float64{
		"service.admit_ms":           median(admit),
		"service.complete_ms":        median(complete),
		"service.direct_sweep_ms":    median(direct),
		"service.result_kb":          median(kb),
		"service.cache_hit_frac":     float64(hits) / float64(attempted),
		"service.requests":           float64(attempted),
		"service.queue_wait_ms.p50":  p50("job_queue_wait"),
		"service.execution_ms.p50":   p50("job_execution"),
		"service.cache_write_ms.p50": p50("cache_write"),
		"service.job_latency_ms.p50": p50("job_latency"),
	}
	fmt.Printf("service split over %d requests (%d fresh, %d cache hits)\n", attempted, len(admit), hits)
	return out, attempted, failed, nil
}
