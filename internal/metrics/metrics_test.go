package metrics

import (
	"math"
	"testing"

	"subcache/internal/cache"
)

func cfg() cache.Config {
	return cache.Config{NetSize: 1024, BlockSize: 16, SubBlockSize: 8, Assoc: 4, WordSize: 2}
}

func TestNewRun(t *testing.T) {
	st := &cache.Stats{
		Accesses: 1000, Misses: 100, Hits: 900,
		BlockMisses: 60, SubBlockMisses: 40,
		SubBlockFills: 100, WordsFetched: 400,
		TxHist:             cache.TxHistFromMap(map[int]uint64{4: 100}),
		ResidencyTouched:   30,
		ResidencySubBlocks: 60,
	}
	r := NewRun("t1", cfg(), st)
	if r.Miss != 0.1 {
		t.Errorf("Miss = %g", r.Miss)
	}
	if r.Traffic != 0.4 {
		t.Errorf("Traffic = %g", r.Traffic)
	}
	// nibble: 0.4 * cost(4)/4 = 0.4 * 0.5
	if math.Abs(r.Scaled-0.2) > 1e-12 {
		t.Errorf("Scaled = %g, want 0.2", r.Scaled)
	}
	if r.Utilization != 0.5 {
		t.Errorf("Utilization = %g", r.Utilization)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestAverageUnweighted(t *testing.T) {
	// A short trace and a long trace: the paper averages ratios, not
	// pooled counts, so both weigh equally.
	a := Run{Trace: "short", Config: cfg(), Miss: 0.2, Traffic: 0.8, Scaled: 0.4, Accesses: 10}
	b := Run{Trace: "long", Config: cfg(), Miss: 0.1, Traffic: 0.4, Scaled: 0.2, Accesses: 1000000}
	s := Average([]Run{a, b})
	if math.Abs(s.Miss-0.15) > 1e-12 {
		t.Errorf("Miss = %g, want 0.15 (unweighted)", s.Miss)
	}
	if math.Abs(s.Traffic-0.6) > 1e-12 {
		t.Errorf("Traffic = %g, want 0.6", s.Traffic)
	}
	if s.N != 2 || s.MissMin != 0.1 || s.MissMax != 0.2 {
		t.Errorf("summary %+v", s)
	}
}

func TestAveragePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Average(nil) did not panic")
		}
	}()
	Average(nil)
}

func TestAveragePanicsMixedConfigs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Average with mixed configs did not panic")
		}
	}()
	other := cfg()
	other.BlockSize = 32
	Average([]Run{{Config: cfg()}, {Config: other}})
}

func TestEffectiveAccessTime(t *testing.T) {
	// t_eff = 1*(1-0.1) + 10*0.1 = 1.9
	if got := EffectiveAccessTime(1, 10, 0.1); math.Abs(got-1.9) > 1e-12 {
		t.Errorf("t_eff = %g, want 1.9", got)
	}
	// Perfect cache: t_eff = t_cache.
	if got := EffectiveAccessTime(1, 10, 0); got != 1 {
		t.Errorf("t_eff(m=0) = %g", got)
	}
	// No cache benefit: t_eff = t_mem.
	if got := EffectiveAccessTime(1, 10, 1); got != 10 {
		t.Errorf("t_eff(m=1) = %g", got)
	}
}
