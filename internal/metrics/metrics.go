// Package metrics computes and aggregates the paper's performance and
// cost metrics: miss ratio, traffic ratio, scaled traffic ratio, gross
// cache size and effective access time.
//
// Aggregation follows §3.3: "Multiple-trace miss and traffic ratios are
// the unweighted average of the miss and traffic ratios of individual
// runs" -- each trace contributes equally regardless of length.
package metrics

import (
	"fmt"
	"math"

	"subcache/internal/cache"
	"subcache/internal/membus"
)

// Run is the measured outcome of simulating one trace through one cache
// configuration.
type Run struct {
	Trace   string
	Config  cache.Config
	Miss    float64
	Traffic float64
	Scaled  float64 // traffic under the nibble-mode cost model

	// Raw counters, retained for reporting beyond the three ratios.
	Accesses       uint64
	Misses         uint64
	BlockMisses    uint64
	SubBlockMisses uint64
	WordsFetched   uint64
	RedundantLoads uint64
	SubBlockFills  uint64
	Utilization    float64 // sub-block residency utilisation
}

// NewRun derives a Run from finished cache statistics, pricing the
// scaled traffic ratio with the paper's nibble-mode model.
func NewRun(traceName string, cfg cache.Config, st *cache.Stats) Run {
	return Run{
		Trace:          traceName,
		Config:         cfg,
		Miss:           st.MissRatio(),
		Traffic:        st.TrafficRatio(),
		Scaled:         membus.ScaledTraffic(st, membus.PaperNibble),
		Accesses:       st.Accesses,
		Misses:         st.Misses,
		BlockMisses:    st.BlockMisses,
		SubBlockMisses: st.SubBlockMisses,
		WordsFetched:   st.WordsFetched,
		RedundantLoads: st.RedundantLoads,
		SubBlockFills:  st.SubBlockFills,
		Utilization:    st.SubBlockUtilization(),
	}
}

// String renders the run compactly.
func (r Run) String() string {
	return fmt.Sprintf("%s %s: miss=%.4f traffic=%.4f nibble=%.4f",
		r.Trace, r.Config, r.Miss, r.Traffic, r.Scaled)
}

// Summary is the unweighted average of several runs of the same cache
// configuration over different traces.
type Summary struct {
	Config  cache.Config
	N       int
	Miss    float64
	Traffic float64
	Scaled  float64
	// MissMin/MissMax bound the per-trace spread, a reproduction-quality
	// diagnostic the paper does not report but that EXPERIMENTS.md uses.
	MissMin, MissMax float64
	Utilization      float64
}

// Average combines runs with equal weight per trace, as the paper does.
// It panics if runs is empty or the runs disagree on configuration,
// because averaging across organisations is always a harness bug.
func Average(runs []Run) Summary {
	if len(runs) == 0 {
		panic("metrics.Average: no runs")
	}
	s := Summary{Config: runs[0].Config, N: len(runs), MissMin: math.Inf(1), MissMax: math.Inf(-1)}
	for _, r := range runs {
		if r.Config != runs[0].Config {
			panic(fmt.Sprintf("metrics.Average: mixed configs %v vs %v", r.Config, runs[0].Config))
		}
		s.Miss += r.Miss
		s.Traffic += r.Traffic
		s.Scaled += r.Scaled
		s.Utilization += r.Utilization
		s.MissMin = math.Min(s.MissMin, r.Miss)
		s.MissMax = math.Max(s.MissMax, r.Miss)
	}
	n := float64(len(runs))
	s.Miss /= n
	s.Traffic /= n
	s.Scaled /= n
	s.Utilization /= n
	return s
}

// EffectiveAccessTime returns the paper's §3.2 model
//
//	t_eff = t_cache*(1-m) + t_mem*m
//
// for miss ratio m.
func EffectiveAccessTime(tCache, tMem, missRatio float64) float64 {
	return tCache*(1-missRatio) + tMem*missRatio
}
