package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"subcache/internal/paperdata"
	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/trace"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies holds one class of operation latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/1e6) }

// report prints, on standard output, a class's median and its highest
// tail percentile (p99, p95 or p90) with at least ten samples beyond it,
// with the sample count.  Wall-clock latencies on a shared host swing
// with the host's load, so they are printed for reading and are not
// among the bounded metrics.
func (l latencies) report(class string) {
	line := fmt.Sprintf("latency %s wall p50 %.3f ms", class, median(l))
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if beyond := int(math.Floor(float64(len(l)) * (1 - q))); beyond >= 10 {
			line += fmt.Sprintf(", p%.0f %.3f ms (%d beyond)", q*100, quantile(l, q), beyond)
			break
		}
	}
	fmt.Printf("%s over %d samples\n", line, len(l))
}

// heapPeak samples the live heap (bytes marked by the last GC) until
// stopped and keeps the highest value seen since the last take.
type heapPeak struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.mu.Lock()
			h.peak = max(h.peak, sample[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// take returns the peak since the previous take, in MiB, and starts a
// new one.
func (h *heapPeak) take() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	mb := float64(h.peak) / (1 << 20)
	h.peak = 0
	return mb
}

// Stop ends sampling and waits for the sampler to exit; later calls do
// nothing.
func (h *heapPeak) Stop() {
	h.once.Do(func() {
		close(h.stop)
		<-h.done
	})
}

// cpuTime returns the process's user plus system CPU time.  The kernel
// counts a thread's time on a CPU only, so time the host hands the
// virtual CPU to another guest (steal) and time spent runnable but
// waiting are both left out: on a shared host it is the steadier
// measure of work done.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the calling thread's CPU time, exact to the
// nanosecond, where getrusage lags by up to a scheduler tick.
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("thread CPU clock: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// chainSink keeps cycleNs's chain observable.
var chainSink uint64

// cycleNs estimates the length of one core clock cycle in ns.  It times
// a dependent chain of 64-bit multiply-adds -- one multiply and one add
// per step, 4 cycles on x86-64 -- on the calling thread's CPU clock,
// five times, and keeps the median.  It is kernelbench.Calibrate's
// chain, timed in CPU time rather than wall time so that steal stays
// out of it, as it stays out of the CPU times it scales.  The chain
// touches no memory, so the figure follows the clock the core ran at,
// which turbo on a shared host moves by several percent from one run
// to the next.  It also returns the CPU time the call used, about
// 15 ms.
func cycleNs() (ns float64, used time.Duration, err error) {
	const iters, cyclesPerIter = 2_000_000, 4
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	first, err := threadCPU()
	if err != nil {
		return 0, 0, err
	}
	xs := make([]float64, 5)
	s, c0 := uint64(1), first
	for k := range xs {
		for i := 0; i < iters; i++ {
			s = s*6364136223846793005 + 1442695040888963407
		}
		c1, err := threadCPU()
		if err != nil {
			return 0, 0, err
		}
		xs[k] = float64(c1-c0) / (iters * cyclesPerIter)
		c0 = c1
	}
	chainSink = s
	return median(xs), c0 - first, nil
}

// wordCounts streams a profile's word-split trace at the largest of the
// given lengths and returns the number of word references the first
// refs[i] generated references expand to.  The generator's stream at a
// shorter length is a prefix of the longer one, so one pass serves
// every length.
func wordCounts(prof synth.Profile, wordSize int, refs []int) ([]int, error) {
	order := make([]int, len(refs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return refs[order[a]] < refs[order[b]] })
	limit := refs[order[len(order)-1]]
	g, err := synth.NewGenerator(prof, limit)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(refs))
	words, emitted, next := 0, 0, 0
	for next < len(order) {
		for next < len(order) && refs[order[next]] == emitted {
			out[order[next]] = words
			next++
		}
		if next == len(order) {
			break
		}
		r, err := g.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("%s: trace ended after %d refs", prof.Name, emitted)
		}
		if err != nil {
			return nil, err
		}
		words += trace.CountWords(r, wordSize)
		emitted++
	}
	return out, nil
}

// profilesOf resolves a request's workload list.
func profilesOf(req sweep.Request) []synth.Profile {
	all := synth.Workloads(req.Arch)
	if len(req.Workloads) == 0 {
		return all
	}
	var out []synth.Profile
	for _, p := range all {
		for _, n := range req.Workloads {
			if p.Name == n {
				out = append(out, p)
			}
		}
	}
	return out
}

// requestWords is the number of word references a request simulates.
func requestWords(req sweep.Request) (int, error) {
	total := 0
	for _, p := range profilesOf(req) {
		n, err := wordCounts(p, req.Arch.WordSize(), []int{req.Refs})
		if err != nil {
			return 0, err
		}
		total += n[0]
	}
	return total, nil
}

// resultDigest renders a sweep result canonically -- points in Table 7
// order, runs in catalog order, every field -- and hashes it.
func resultDigest(res *sweep.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", res.Arch)
	for _, p := range res.Points() {
		for _, run := range res.Runs[p] {
			fmt.Fprintf(h, "%s %+v\n", p, run)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestOf hashes a list of digests or payloads in order.
func digestOf(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// anchor is one measured Table 7 miss ratio with the paper's value.
type anchor struct {
	arch           synth.Arch
	key            paperdata.Key
	measured, want float64
}

// anchorsOf pairs measured architecture-average miss ratios with the
// Table 7 cells they cover, in a fixed order so that sums over them
// repeat bit for bit.
func anchorsOf(arch synth.Arch, miss map[paperdata.Key]float64) []anchor {
	var out []anchor
	for k, m := range miss {
		if c, ok := paperdata.Table7[arch][k]; ok {
			out = append(out, anchor{arch: arch, key: k, measured: m, want: c.Miss})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].key, out[j].key
		if a.Net != b.Net {
			return a.Net < b.Net
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Sub < b.Sub
	})
	return out
}

// paperFidelity returns the geometric-mean miss-ratio error against the
// paper, 100*(exp(mean |ln(measured/paper)|) - 1), and the share of
// anchor pairs the run ranks the same way as the paper.  A pair is
// compared when both anchors share an architecture or an organisation;
// pairs the paper ties are skipped.
func paperFidelity(as []anchor) (errPct, agreePct float64, pairs int, err error) {
	if len(as) == 0 {
		return 0, 0, 0, fmt.Errorf("no Table 7 anchors covered")
	}
	sum := 0.0
	for _, a := range as {
		if a.measured <= 0 {
			return 0, 0, 0, fmt.Errorf("%v %v: measured miss ratio %g", a.arch, a.key, a.measured)
		}
		sum += math.Abs(math.Log(a.measured / a.want))
	}
	errPct = 100 * (math.Exp(sum/float64(len(as))) - 1)
	agree := 0
	for i := range as {
		for j := i + 1; j < len(as); j++ {
			a, b := as[i], as[j]
			if (a.arch != b.arch && a.key != b.key) || a.want == b.want {
				continue
			}
			pairs++
			if (a.measured < b.measured) == (a.want < b.want) {
				agree++
			}
		}
	}
	if pairs == 0 {
		return 0, 0, 0, fmt.Errorf("no comparable anchor pairs")
	}
	return errPct, 100 * float64(agree) / float64(pairs), pairs, nil
}

// keyOf converts a demand-fetch point to its paper coordinates.
func keyOf(p sweep.Point) paperdata.Key { return paperdata.Key{Net: p.Net, Block: p.Block, Sub: p.Sub} }
