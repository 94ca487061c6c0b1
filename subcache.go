// Package subcache is a trace-driven simulator for small on-chip
// microprocessor caches with sub-block (sector) placement, reproducing
// Hill & Smith, "Experimental Evaluation of On-Chip Microprocessor Cache
// Memories" (ISCA 1984).
//
// The package exposes the full toolkit behind the paper:
//
//   - a set-associative sub-block cache simulator (Config, Simulator)
//     with LRU/FIFO/Random replacement and demand, load-forward and
//     whole-block fetch policies;
//   - the paper's metrics: miss ratio, traffic ratio, nibble-mode scaled
//     traffic ratio (ScaledTrafficRatio) and gross cache size
//     (Config.GrossSize);
//   - trace input/output in a Dinero-style text format and a compact
//     binary format (OpenTraceFile, WriteTraceFile);
//   - calibrated synthetic workloads standing in for the paper's PDP-11,
//     Z8000, VAX-11 and System/370 trace suites (Workloads,
//     WorkloadByName, SimulateWorkload).
//
// # Quick start
//
//	cfg := subcache.Config{
//		NetSize: 1024, BlockSize: 16, SubBlockSize: 8,
//		Assoc: 4, WordSize: 2,
//	}
//	run, err := subcache.SimulateWorkload("ED", cfg, 1_000_000)
//	if err != nil { ... }
//	fmt.Printf("miss %.3f traffic %.3f\n", run.Miss, run.Traffic)
//
// The cmd/ directory provides tracegen (emit the synthetic traces),
// cachesim (a Dinero-like CLI) and experiments (regenerate every table
// and figure in the paper); see README.md.
package subcache

import (
	"context"
	"fmt"
	"io"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/membus"
	"subcache/internal/metrics"
	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/trace"
)

// Core configuration types, aliased from the implementation packages so
// that downstream users never import internal paths.
type (
	// Config describes a cache organisation in the paper's vocabulary:
	// net (data) size, block size (bytes per tag), sub-block size
	// (transfer unit), associativity and data-path word size.
	Config = cache.Config
	// Replacement selects the victim policy (LRU, FIFO, Random).
	Replacement = cache.Replacement
	// Fetch selects the miss fill policy (DemandSubBlock, LoadForward,
	// LoadForwardOptimized, WholeBlock).
	Fetch = cache.Fetch
	// WritePolicy controls how data writes touch the cache.
	WritePolicy = cache.WritePolicy
	// Stats holds the event counts of one simulation.
	Stats = cache.Stats

	// Address is a byte address in the simulated address space.
	Address = addr.Addr
	// Ref is one memory reference (address, kind, size).
	Ref = trace.Ref
	// Kind classifies a reference (IFetch, Read, Write).
	Kind = trace.Kind
	// Source is a stream of references.
	Source = trace.Source

	// Run is the measured outcome of one (workload, config) simulation.
	Run = metrics.Run
	// Summary is the unweighted average of runs across a workload suite.
	Summary = metrics.Summary

	// Arch identifies one of the paper's four architectures.
	Arch = synth.Arch
	// Workload parameterises one synthetic workload.
	Workload = synth.Profile

	// CostModel prices bus transactions (Linear, Nibble, Transactional).
	CostModel = membus.CostModel
)

// Replacement policies.
const (
	LRU    = cache.LRU
	FIFO   = cache.FIFO
	Random = cache.Random
)

// Fetch policies.
const (
	DemandSubBlock       = cache.DemandSubBlock
	LoadForward          = cache.LoadForward
	LoadForwardOptimized = cache.LoadForwardOptimized
	WholeBlock           = cache.WholeBlock
)

// Write policies.
const (
	WriteAllocate   = cache.WriteAllocate
	WriteNoAllocate = cache.WriteNoAllocate
	WriteIgnore     = cache.WriteIgnore
)

// Reference kinds.
const (
	IFetch = trace.IFetch
	Read   = trace.Read
	Write  = trace.Write
)

// Architectures.
const (
	PDP11 = synth.PDP11
	Z8000 = synth.Z8000
	VAX11 = synth.VAX11
	S370  = synth.S370
)

// Architectures lists the paper's four architectures in presentation
// order.
func Architectures() []Arch { return synth.AllArchs() }

// Workloads returns the calibrated synthetic workloads standing in for
// the architecture's trace table (Tables 2-5 of the paper).
func Workloads(a Arch) []Workload { return synth.Workloads(a) }

// WorkloadByName finds a workload across all architectures (e.g. "ED",
// "CCP", "SPICE", "FGO1").
func WorkloadByName(name string) (Workload, bool) { return synth.ProfileByName(name) }

// WorkloadNames lists every available workload name, sorted.
func WorkloadNames() []string { return synth.Names() }

// Simulator drives one cache over a reference stream.  It accepts
// processor-level references of any size and splits them to data-path
// words internally, as the paper's tracer did.
type Simulator struct {
	cache *cache.Cache
}

// New builds a simulator for the given configuration.
func New(cfg Config) (*Simulator, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulator{cache: c}, nil
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cache.Config() }

// Access presents one reference.  References wider than the data path
// become multiple word accesses.
func (s *Simulator) Access(r Ref) {
	w := s.cache.Config().WordSize
	n := trace.CountWords(r, w)
	first := addr.AlignDown(r.Addr, uint64(w))
	for i := 0; i < n; i++ {
		s.cache.Access(Ref{
			Addr: first + addr.Addr(i*w),
			Kind: r.Kind,
			Size: uint8(w),
		})
	}
}

// Run consumes src until EOF, then finalises residency statistics.
func (s *Simulator) Run(src Source) error {
	sp := trace.NewSplitter(src, s.cache.Config().WordSize)
	return s.cache.Run(sp)
}

// Stats exposes the accumulated counters.
func (s *Simulator) Stats() *Stats { return s.cache.Stats() }

// Finish folds still-resident blocks into the residency-utilisation
// statistics.  Run does this automatically; call Finish when driving the
// simulator through Access.
func (s *Simulator) Finish() { s.cache.FlushUsage() }

// MissRatio returns the current miss ratio.
func (s *Simulator) MissRatio() float64 { return s.cache.Stats().MissRatio() }

// TrafficRatio returns the current traffic ratio.
func (s *Simulator) TrafficRatio() float64 { return s.cache.Stats().TrafficRatio() }

// ScaledTrafficRatio prices the run's bus transactions with a cost model
// (NibbleModel() for the paper's nibble-mode memories).
func (s *Simulator) ScaledTrafficRatio(m CostModel) float64 {
	return membus.ScaledTraffic(s.cache.Stats(), m)
}

// NibbleModel returns the paper's nibble-mode cost model,
// cost(w) = 1 + (w-1)/3.
func NibbleModel() CostModel { return membus.PaperNibble }

// LinearModel returns the conventional proportional bus cost model.
func LinearModel() CostModel { return membus.Linear{} }

// TransactionalModel returns the general a + b*w bus cost model of §4.3.
func TransactionalModel(overhead, perWord float64) CostModel {
	return membus.Transactional{Overhead: overhead, PerWord: perWord}
}

// EffectiveAccessTime evaluates the paper's t_eff model (§3.2).
func EffectiveAccessTime(tCache, tMem, missRatio float64) float64 {
	return metrics.EffectiveAccessTime(tCache, tMem, missRatio)
}

// SimulateWorkload generates refs references of the named synthetic
// workload and drives them through a fresh cache, returning the measured
// run.  The paper's runs use refs = 1,000,000.
func SimulateWorkload(name string, cfg Config, refs int) (Run, error) {
	return SimulateWorkloadContext(context.Background(), name, cfg, refs)
}

// SimulateWorkloadContext is SimulateWorkload honoring a context:
// cancellation or deadline expiry aborts the replay promptly (at the
// next trace chunk boundary) with ctx's error.
func SimulateWorkloadContext(ctx context.Context, name string, cfg Config, refs int) (Run, error) {
	prof, ok := synth.ProfileByName(name)
	if !ok {
		return Run{}, fmt.Errorf("subcache: unknown workload %q (have %v)", name, synth.Names())
	}
	return sweep.RunOneContext(ctx, prof, cfg, refs)
}

// SimulateSuite runs every workload of an architecture through cfg and
// returns the per-workload runs plus their unweighted average, the
// paper's aggregation.
func SimulateSuite(a Arch, cfg Config, refs int) ([]Run, Summary, error) {
	var runs []Run
	for _, prof := range synth.Workloads(a) {
		r, err := sweep.RunOne(prof, cfg, refs)
		if err != nil {
			return nil, Summary{}, err
		}
		runs = append(runs, r)
	}
	return runs, metrics.Average(runs), nil
}

// SimulateWorkloadMany measures every configuration against the named
// workload in a single pass over its trace.  Configurations that share
// tag geometry and policies, differing only in SubBlockSize and Fetch,
// are simulated together by the single-pass multipass kernel;
// configurations the kernel cannot host (OBL prefetch,
// write-no-allocate) ride the same pass on individual reference
// simulators.  The pass is sharded across the machine's cores by the
// sweep harness's chunk-broadcast executor -- the trace is streamed,
// never materialised, and every configuration still sees the complete
// ordered stream.  The returned runs align with cfgs and are
// bit-identical to len(cfgs) separate SimulateWorkload calls.  All
// configurations must agree on WordSize, since they consume one shared
// word-split trace.
func SimulateWorkloadMany(name string, cfgs []Config, refs int) ([]Run, error) {
	return SimulateWorkloadManyContext(context.Background(), name, cfgs, refs)
}

// SimulateWorkloadManyContext is SimulateWorkloadMany honoring a
// context: cancellation or deadline expiry aborts the streamed pass
// promptly with ctx's error, and no partial runs are returned.
func SimulateWorkloadManyContext(ctx context.Context, name string, cfgs []Config, refs int) ([]Run, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("subcache: no configurations")
	}
	prof, ok := synth.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("subcache: unknown workload %q (have %v)", name, synth.Names())
	}
	return sweep.RunConfigs(ctx, prof, cfgs, refs, 0)
}

// GenerateWorkload materialises n references of the named workload,
// for callers that want the raw trace (e.g. to write it to a file).
func GenerateWorkload(name string, n int) ([]Ref, error) {
	prof, ok := synth.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("subcache: unknown workload %q", name)
	}
	return synth.Generate(prof, n)
}

// NewSliceSource adapts a reference slice to a Source.
func NewSliceSource(refs []Ref) Source { return trace.NewSliceSource(refs) }

// Limit truncates a source after n references.
func Limit(src Source, n int) Source { return trace.Limit(src, n) }

// EOF is the sentinel returned by sources at end of stream.
var EOF = io.EOF
