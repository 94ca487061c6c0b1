package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"subcache/internal/paperdata"
	"subcache/internal/service"
	"subcache/internal/sweep"
	"subcache/internal/synth"
)

// The sweepd-mix traffic: a closed loop of mixClients clients against
// an in-process sweepd.  Three requests in every mixBlock repeat one of
// a warmed pool of mixPool Z8000 requests (the read path: the result
// cache); the fourth carries a trace length never asked before (the
// write path: simulate, checksummed cache write, fsynced journal
// appends).
const (
	mixClients  = 2
	mixPool     = 4
	mixBlock    = 4
	mixBaseRefs = 20_000
	// mixSetups is how many times a run repeats its set-up, which is
	// cheap here; setup_s is the median.
	mixSetups = 9
	// mixSamples is how many fresh results are checked against a
	// direct sweep of the same request.
	mixSamples = 3
	// mixTracedRequests is how many scheduled requests the traced run
	// sends after warming the pool.
	mixTracedRequests = 48
	// mixHeapRequests bounds the heap peaks to a fixed amount of work:
	// sweepd keeps every job in its table, so over a fixed time the
	// peak would grow with throughput.  The metric is the median of the
	// per-window peaks over these requests.
	mixHeapRequests = 400
	// mixWindow is how many completed requests make one measurement
	// window; the CPU figures are medians over complete windows.
	mixWindow = 40
)

var (
	mixArch = synth.Z8000
	mixNets = []int{64, 256}
)

// mixReq is one scheduled request: a pool request (pool >= 0) or a
// fresh one.
type mixReq struct {
	wire  service.SweepRequest
	pool  int
	fresh int // fresh requests' index in schedule order
}

// schedule hands out the seeded request sequence; its order and every
// request's class depend on the seed alone.
type schedule struct {
	mu      sync.Mutex
	rng     *rand.Rand
	base    int
	fresh   int // fresh requests drawn so far
	slot    int // position in the current block
	freshAt int // the current block's fresh position
}

func newSchedule(seed int) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(int64(seed))), base: mixBaseRefs + seedOffset(seed)}
}

func (s *schedule) wire(refs int) service.SweepRequest {
	return service.SweepRequest{Arch: mixArch.String(), Nets: mixNets, Refs: refs}
}

// pool returns the warmed repeat requests.
func (s *schedule) pool() []service.SweepRequest {
	out := make([]service.SweepRequest, mixPool)
	for k := range out {
		out[k] = s.wire(s.base + k)
	}
	return out
}

// next draws the next request.  Requests come in blocks of mixBlock
// with exactly one fresh request at a seeded position, so every run
// sees the same share of fresh requests and a seed changes only the
// order.
func (s *schedule) next() mixReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slot == 0 {
		s.freshAt = s.rng.Intn(mixBlock)
	}
	fresh := s.slot == s.freshAt
	s.slot = (s.slot + 1) % mixBlock
	if !fresh {
		k := s.rng.Intn(mixPool)
		return mixReq{wire: s.wire(s.base + k), pool: k, fresh: -1}
	}
	i := s.fresh
	s.fresh++
	return mixReq{wire: s.wire(s.base + mixPool + i), pool: -1, fresh: i}
}

// sweepd is an in-process sweep service on a loopback listener.
type sweepd struct {
	srv *service.Server
	ts  *httptest.Server
}

// startSweepd creates a service over dir, serves it, and waits until
// /readyz answers 200.
func startSweepd(dir string) (*sweepd, error) {
	srv, err := service.New(service.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	d := &sweepd{srv: srv, ts: httptest.NewServer(srv)}
	for {
		resp, err := d.ts.Client().Get(d.ts.URL + "/readyz")
		if err != nil {
			d.stop()
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return d, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener and drains the service.
func (d *sweepd) stop() error {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// post submits a request, with ?wait=1 when wait is set.
func (d *sweepd) post(w service.SweepRequest, wait bool) (int, service.SubmitResponse, error) {
	body, err := json.Marshal(w)
	if err != nil {
		return 0, service.SubmitResponse{}, err
	}
	url := d.ts.URL + "/v1/sweeps"
	if wait {
		url += "?wait=1"
	}
	resp, err := d.ts.Client().Post(url, "application/json", bytes.NewReader(body))
	return decodeReply(resp, err)
}

// wait blocks on a job with GET ?wait=1.
func (d *sweepd) wait(id string) (int, service.SubmitResponse, error) {
	resp, err := d.ts.Client().Get(d.ts.URL + "/v1/sweeps/" + id + "?wait=1")
	return decodeReply(resp, err)
}

func decodeReply(resp *http.Response, err error) (int, service.SubmitResponse, error) {
	var out service.SubmitResponse
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, out, err
	}
	return resp.StatusCode, out, nil
}

// resolve turns a wire request into the sweep the service runs for it.
func resolve(w service.SweepRequest) (sweep.Request, error) {
	arch, err := synth.ParseArch(w.Arch)
	if err != nil {
		return sweep.Request{}, err
	}
	return sweep.Request{
		Arch:      arch,
		Points:    sweep.Grid(w.Nets, arch.WordSize()),
		Refs:      w.Refs,
		Workloads: w.Workloads,
		Engine:    sweep.MultiPass,
	}, nil
}

// sameAsDirect checks a served result against a direct sweep of the
// same request, run by run.
func sameAsDirect(res *sweep.Result, payload []byte) error {
	var served service.Result
	if err := json.Unmarshal(payload, &served); err != nil {
		return err
	}
	byPoint := map[string]service.PointResult{}
	for _, pr := range served.Points {
		byPoint[pr.Point] = pr
	}
	if len(byPoint) != len(res.Summaries) {
		return fmt.Errorf("served %d points, direct sweep %d", len(byPoint), len(res.Summaries))
	}
	for _, p := range res.Points() {
		pr, ok := byPoint[p.String()]
		if !ok || len(pr.Runs) != len(res.Runs[p]) {
			return fmt.Errorf("point %s: runs differ in number", p)
		}
		for i, run := range res.Runs[p] {
			got := pr.Runs[i]
			if got.Workload != run.Trace || got.Miss != run.Miss || got.Traffic != run.Traffic ||
				got.Scaled != run.Scaled || got.Accesses != run.Accesses || got.Misses != run.Misses {
				return fmt.Errorf("point %s workload %s: served %+v, direct %+v", p, run.Trace, got, run)
			}
		}
	}
	return nil
}

// mixTimed measures the end-to-end metrics of the service mix.  Set-up
// starts a service on a fresh directory, waits for /readyz and warms
// the pool; the timed phase runs the closed loop, one POST ?wait=1 per
// request.  The CPU time per word reference is taken per window of
// mixWindow completed requests and reported as the median over complete
// windows.  Times are process CPU time (see cpuTime), server and clients
// together, counted in cycles of the clock cycleNs measures as each
// window closes; wall-clock rates and latencies are printed beside them
// for reading only.
func mixTimed(e *env) (*report, error) {
	sched := newSchedule(e.seed)
	pool := sched.pool()
	var c checks
	first, err := resolve(sched.wire(sched.base + mixPool))
	if err != nil {
		return nil, err
	}
	if err := referenceCheck(&c, []sweep.Request{first}); err != nil {
		return nil, err
	}

	poolResults := make([][]byte, mixPool)
	var setupS, setupWall []float64
	var d *sweepd
	for s := 0; s < mixSetups; s++ {
		dir := filepath.Join(e.scratch, fmt.Sprintf("setup%d", s))
		t0, c0 := time.Now(), cpuTime()
		sd, err := startSweepd(dir)
		if err != nil {
			return nil, err
		}
		for k, w := range pool {
			code, resp, err := sd.post(w, true)
			if err != nil || code != http.StatusOK {
				sd.stop()
				return nil, fmt.Errorf("set-up: warming pool request %d: status %d, %v", k, code, err)
			}
			if s == 0 {
				poolResults[k] = resp.Result
			} else if !bytes.Equal(resp.Result, poolResults[k]) {
				c.fail("set-up %d: pool request %d result differs from set-up 0", s, k)
			}
		}
		setupS = append(setupS, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		if s < mixSetups-1 {
			if err := sd.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		} else {
			d = sd
		}
	}

	var (
		mu                sync.Mutex
		hit, fresh        latencies
		attempted, failed int
		heapMB            []float64 // per window, over the first mixHeapRequests
		freshRefs         []int
		freshWindow       []int // the window each fresh request completed in
		windowCPU         []time.Duration
		cycles            []float64
		probeCPU          time.Duration // the last clock reading's CPU time
		probeErr          error
		samples           = map[int][]byte{}
		wg                sync.WaitGroup
	)
	peak := startHeapPeak()
	defer peak.Stop()
	windowStart := cpuTime()
	start := time.Now()
	for i := 0; i < mixClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start).Seconds() < e.seconds {
				r := sched.next()
				t0 := time.Now()
				code, resp, err := d.post(r.wire, true)
				lat := time.Since(t0)
				mu.Lock()
				attempted++
				ok := err == nil && code == http.StatusOK && resp.Status == "done"
				if r.pool >= 0 {
					hit.add(lat)
					ok = ok && resp.Cached && bytes.Equal(resp.Result, poolResults[r.pool])
				} else {
					fresh.add(lat)
					ok = ok && !resp.Cached
					if ok {
						freshRefs = append(freshRefs, r.wire.Refs)
						freshWindow = append(freshWindow, len(windowCPU))
						if r.fresh < mixSamples {
							samples[r.fresh] = resp.Result
						}
					}
				}
				if !ok {
					failed++
					c.fail("request %+v: status %d, cached %v, err %v", r.wire, code, resp.Cached, err)
				}
				if attempted%mixWindow == 0 && attempted <= mixHeapRequests {
					heapMB = append(heapMB, peak.take())
					if attempted == mixHeapRequests {
						peak.Stop()
					}
				}
				if attempted%mixWindow == 0 && probeErr == nil {
					// The clock reading runs after the window closes, so
					// its own CPU time is taken off the next window.
					now := cpuTime()
					windowCPU = append(windowCPU, now-windowStart-probeCPU)
					windowStart = now
					var cycle float64
					cycle, probeCPU, probeErr = cycleNs()
					cycles = append(cycles, cycle)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if attempted < mixHeapRequests {
		fmt.Printf("heap peaks over %d requests, fewer than %d\n", attempted, mixHeapRequests)
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	if probeErr != nil {
		return nil, probeErr
	}
	if len(windowCPU) == 0 {
		return nil, fmt.Errorf("%g seconds is too short for one window of %d requests", e.seconds, mixWindow)
	}

	for i, payload := range samples {
		req, err := resolve(sched.wire(sched.base + mixPool + i))
		if err != nil {
			return nil, err
		}
		res, err := sweep.RunContext(context.Background(), req)
		if err != nil {
			return nil, err
		}
		if err := sameAsDirect(res, payload); err != nil {
			c.fail("fresh request %d differs from a direct sweep: %v", i, err)
		}
	}
	fmt.Printf("check %d fresh results against direct sweeps: done\n", len(samples))

	windowWords := make([]int, len(windowCPU)+1)
	if len(freshRefs) > 0 {
		for _, p := range synth.Workloads(mixArch) {
			n, err := wordCounts(p, mixArch.WordSize(), freshRefs)
			if err != nil {
				return nil, err
			}
			for j, w := range n {
				windowWords[freshWindow[j]] += w
			}
		}
	}
	var nsPerRef []float64
	for w, cpu := range windowCPU {
		nsPerRef = append(nsPerRef, float64(cpu)/float64(max(windowWords[w], 1)))
	}
	fmt.Printf("windows %d (medians): CPU %.2f ns/ref, cycle %.4f ns; wall %.2f requests/s; set-up wall %.3f s (median)\n",
		len(windowCPU), median(nsPerRef), median(cycles), float64(attempted-failed)/wall.Seconds(), median(setupWall))
	fmt.Printf("digest sweepd-mix seed %d %s\n", e.seed, digestOf(poolResults))

	errPct, agreePct, pairs, err := servedFidelity(poolResults[0])
	if err != nil {
		return nil, err
	}
	fmt.Printf("paper fidelity over %d anchor pairs\n", pairs)
	ms := map[string]metric{}
	set(ms, "setup_s", median(setupS))
	set(ms, "cycles_per_ref", median(nsPerRef)/median(cycles))
	set(ms, "peak_live_heap_mb", median(heapMB))
	set(ms, "paper_miss_err_pct", errPct)
	set(ms, "paper_order_agree_pct", agreePct)
	hit.report("hit")
	fresh.report("fresh")
	return &report{Correct: len(c) == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

// servedFidelity compares a served result's architecture averages with
// Table 7.
func servedFidelity(payload []byte) (errPct, agreePct float64, pairs int, err error) {
	var served service.Result
	if err := json.Unmarshal(payload, &served); err != nil {
		return 0, 0, 0, err
	}
	miss := map[paperdata.Key]float64{}
	for _, pr := range served.Points {
		var k paperdata.Key
		if _, err := fmt.Sscanf(pr.Point, "%d:%d,%d", &k.Net, &k.Block, &k.Sub); err != nil {
			return 0, 0, 0, fmt.Errorf("point %q: %w", pr.Point, err)
		}
		miss[k] = pr.Miss
	}
	return paperFidelity(anchorsOf(mixArch, miss))
}

// mixTraced replays one fresh request's sweep layer by layer and sends
// the pool plus the first scheduled requests to sweepd in the two-call
// form.
func mixTraced(e *env) (*report, error) {
	sched := newSchedule(e.seed)
	wire := sched.pool()
	for i := 0; i < mixTracedRequests; i++ {
		wire = append(wire, sched.next().wire)
	}
	req, err := resolve(sched.wire(sched.base + mixPool))
	if err != nil {
		return nil, err
	}
	return tracedRun(e, []sweep.Request{req}, wire)
}
