package riscii

import (
	"math"
	"testing"
	"testing/quick"

	"subcache/internal/addr"
	"subcache/internal/synth"
	"subcache/internal/trace"
)

func TestICacheConfigDefaults(t *testing.T) {
	cfg := ICacheConfig{}.Config()
	if cfg.NetSize != 512 || cfg.BlockSize != 8 || cfg.Assoc != 1 || cfg.WordSize != 4 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// 64 direct-mapped blocks, as the chip.
	if cfg.NumFrames() != 64 || cfg.NumSets() != 64 {
		t.Errorf("frames=%d sets=%d, want 64/64", cfg.NumFrames(), cfg.NumSets())
	}
}

func TestRemotePCSequential(t *testing.T) {
	r, err := NewRemotePC(4)
	if err != nil {
		t.Fatal(err)
	}
	// Pure straight-line code: all predictions correct.
	for pc := addr.Addr(0x100); pc < 0x200; pc += 4 {
		if !r.Observe(pc, pc+4) {
			t.Fatalf("sequential prediction failed at %v", pc)
		}
	}
	if r.Accuracy() != 1 {
		t.Errorf("accuracy = %g, want 1", r.Accuracy())
	}
}

func TestRemotePCLearnsLoopBranch(t *testing.T) {
	r, _ := NewRemotePC(4)
	// A 4-instruction loop: 0x100,0x104,0x108,0x10c -> 0x100.
	loop := []addr.Addr{0x100, 0x104, 0x108, 0x10c}
	missFirst := 0
	for iter := 0; iter < 50; iter++ {
		for i, pc := range loop {
			next := loop[(i+1)%len(loop)]
			if !r.Observe(pc, next) && iter > 0 {
				missFirst++
			}
		}
	}
	// After the first iteration the backward branch is remembered:
	// no further mispredictions.
	if missFirst != 0 {
		t.Errorf("%d mispredictions after warmup", missFirst)
	}
	if r.Accuracy() < 0.99 {
		t.Errorf("loop accuracy = %g", r.Accuracy())
	}
}

func TestRemotePCRetrainsOnFallthrough(t *testing.T) {
	r, _ := NewRemotePC(4)
	r.Observe(0x100, 0x200) // branch: target remembered
	if r.Predict(0x100) != 0x200 {
		t.Error("target not remembered")
	}
	r.Observe(0x100, 0x104) // falls through: hint retrained
	if r.Predict(0x100) != 0x104 {
		t.Error("fallthrough did not clear the stale hint")
	}
}

func TestRemotePCValidation(t *testing.T) {
	if _, err := NewRemotePC(0); err == nil {
		t.Error("accepted zero instruction size")
	}
	if _, err := NewRemotePC(3); err == nil {
		t.Error("accepted non-pow2 instruction size")
	}
}

func TestRemotePCZeroSafe(t *testing.T) {
	r, _ := NewRemotePC(4)
	if r.Accuracy() != 0 {
		t.Error("fresh predictor not zeroed")
	}
}

func TestAccessTimeReductionChipNumbers(t *testing.T) {
	// 89.9% accuracy with ~47% overlap reproduces the chip's 42.2%.
	got := AccessTimeReduction(0.899, 0.47)
	if math.Abs(got-0.422) > 0.01 {
		t.Errorf("reduction = %g, want ~0.422", got)
	}
}

func TestCompactorValidation(t *testing.T) {
	if _, err := NewCompactor(0, 0, 4, 0.4, 1); err == nil {
		t.Error("accepted zero size")
	}
	if _, err := NewCompactor(0, 10, 4, 0.4, 1); err == nil {
		t.Error("accepted non-multiple size")
	}
	if _, err := NewCompactor(0, 16, 4, 1.5, 1); err == nil {
		t.Error("accepted fraction > 1")
	}
}

func TestCompactorSavings(t *testing.T) {
	// 40% of instructions compacted to half length: ~20% size cut,
	// the chip's number.
	c, err := NewCompactor(0x1000, 64<<10, 4, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.StaticSavings(); math.Abs(s-0.20) > 0.02 {
		t.Errorf("savings = %g, want ~0.20", s)
	}
}

func TestCompactorMapMonotone(t *testing.T) {
	c, _ := NewCompactor(0x1000, 4096, 4, 0.4, 3)
	var prev addr.Addr
	for a := addr.Addr(0x1000); a < 0x1000+4096; a += 4 {
		m := c.Map(a)
		if a > 0x1000 && m <= prev {
			t.Fatalf("mapping not strictly monotone at %v: %v <= %v", a, m, prev)
		}
		if m > a {
			t.Fatalf("compacted address %v beyond original %v", m, a)
		}
		prev = m
	}
}

func TestCompactorMapOutsideRegion(t *testing.T) {
	c, _ := NewCompactor(0x1000, 4096, 4, 0.4, 3)
	if c.Map(0x10) != 0x10 {
		t.Error("address below region changed")
	}
	if c.Map(0x100000) != 0x100000 {
		t.Error("address above region changed")
	}
}

func TestCompactorZeroFraction(t *testing.T) {
	c, _ := NewCompactor(0, 1024, 4, 0, 3)
	if c.StaticSavings() != 0 {
		t.Error("zero fraction saved space")
	}
	for a := addr.Addr(0); a < 1024; a += 4 {
		if c.Map(a) != a {
			t.Fatalf("identity mapping broken at %v", a)
		}
	}
}

// Property: the compacted mapping preserves instruction-slot ordering
// for any fraction and seed.
func TestPropertyCompactorMonotone(t *testing.T) {
	f := func(seed uint64, fracRaw uint8) bool {
		frac := float64(fracRaw%101) / 100
		c, err := NewCompactor(0, 2048, 4, frac, seed)
		if err != nil {
			return false
		}
		var prev addr.Addr
		for a := addr.Addr(0); a < 2048; a += 4 {
			m := c.Map(a)
			if a > 0 && m <= prev {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, quickCfg(40)); err != nil {
		t.Error(err)
	}
}

// --- Whole-chip evaluations against the paper's §2.3 numbers ---

func benchTrace(t *testing.T, n int) []trace.Ref {
	t.Helper()
	refs, err := synth.Generate(Workload(11), n)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// TestMissRatioVsSize: the chip study found miss ratios falling ~20%
// per size doubling (0.148, 0.125, 0.098, 0.078 for 512..4096 bytes).
// The synthetic benchmark must show monotone decline with meaningful
// per-doubling improvements.
func TestMissRatioVsSize(t *testing.T) {
	refs := benchTrace(t, 200000)
	prev := math.Inf(1)
	for _, size := range []int{512, 1024, 2048, 4096} {
		res, err := Evaluate(ICacheConfig{Size: size}, trace.NewSliceSource(refs), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.MissRatio >= prev {
			t.Errorf("%dB: miss %.4f did not improve on %.4f", size, res.MissRatio, prev)
		}
		if prev != math.Inf(1) {
			drop := 1 - res.MissRatio/prev
			if drop < 0.05 {
				t.Errorf("%dB: doubling improved miss only %.1f%%", size, 100*drop)
			}
		}
		prev = res.MissRatio
	}
}

// TestRemotePCAccuracyOnBenchmark: the chip predicted 89.9% of next
// addresses; the loopy synthetic benchmark should land in the same
// region (>= 80%).
func TestRemotePCAccuracyOnBenchmark(t *testing.T) {
	refs := benchTrace(t, 200000)
	rpc, _ := NewRemotePC(4)
	res, err := Evaluate(ICacheConfig{}, trace.NewSliceSource(refs), nil, rpc)
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictionAccuracy < 0.80 {
		t.Errorf("remote PC accuracy = %.3f, want >= 0.80 (chip: 0.899)", res.PredictionAccuracy)
	}
	if res.Fetches == 0 {
		t.Error("no fetches evaluated")
	}
}

// TestCompactionImprovesMissRatio: the chip's half-word instructions
// improved miss ratios 27%; the model must show a clear improvement.
func TestCompactionImprovesMissRatio(t *testing.T) {
	refs := benchTrace(t, 200000)
	plain, err := Evaluate(ICacheConfig{}, trace.NewSliceSource(refs), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewCompactor(0x1000, Workload(11).CodeSize+64, 4, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := Evaluate(ICacheConfig{}, trace.NewSliceSource(refs), comp, nil)
	if err != nil {
		t.Fatal(err)
	}
	improve := 1 - compacted.MissRatio/plain.MissRatio
	if improve < 0.08 {
		t.Errorf("compaction improved miss only %.1f%% (plain %.4f, compacted %.4f; chip: 27%%)",
			100*improve, plain.MissRatio, compacted.MissRatio)
	}
}
