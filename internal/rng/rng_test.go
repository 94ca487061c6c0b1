package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("split children agree at step %d", i)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("identical split sequences diverged at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expected %.0f", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(13)
	for _, p := range []float64{0.1, 0.3, 0.5, 0.9} {
		sum := 0.0
		const trials = 50000
		for i := 0; i < trials; i++ {
			sum += float64(r.Geometric(p))
		}
		got := sum / trials
		want := (1 - p) / p
		if math.Abs(got-want) > 0.15*(want+0.1) {
			t.Errorf("Geometric(%g) mean = %.3f, want ~%.3f", p, got, want)
		}
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if v := r.Geometric(1); v != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", v)
		}
	}
}

// TestGeometricTinyP: below p ~ 1.1e-16, 1-p rounds to 1 in float64.
// The sampler must still return the 1<<30 cap there, as it does just
// above the threshold, not 0 on every draw.
func TestGeometricTinyP(t *testing.T) {
	for _, p := range []float64{1e-16, 1e-17, 1e-18, 1e-300, math.SmallestNonzeroFloat64} {
		r := New(7)
		for i := 0; i < 100; i++ {
			if got := r.Geometric(p); got != 1<<30 {
				t.Fatalf("Geometric(%g) draw %d = %d, want the 1<<30 cap", p, i, got)
			}
		}
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(19)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	// With s=1 the first category should dominate the last by roughly
	// a factor of 100; accept anything strongly skewed.
	if counts[0] < 10*counts[99] {
		t.Errorf("Zipf(s=1) insufficiently skewed: first=%d last=%d", counts[0], counts[99])
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(23)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	const trials = 50000
	for i := 0; i < trials; i++ {
		counts[z.Next()]++
	}
	want := float64(trials) / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("Zipf(s=0) bucket %d: %d, want ~%.0f", i, c, want)
		}
	}
}

// TestIntnPinnedSequence pins one stream's Intn draws across bounds
// that take every path of the multiply-shift method: the trivial bound,
// small and power-of-two bounds, a bound whose rejection zone is a
// quarter of the range (3<<61), and the largest int.  Every synthetic
// trace is built from these draws, so any change to them is a change
// to every workload.
func TestIntnPinnedSequence(t *testing.T) {
	want := []struct {
		n    int
		vals []int
	}{
		{1, []int{0, 0, 0, 0, 0, 0}},
		{3, []int{2, 1, 2, 1, 0, 1}},
		{7, []int{1, 4, 0, 0, 5, 5}},
		{1000, []int{304, 721, 345, 413, 335, 113}},
		{1 << 31, []int{1856466125, 1312065037, 1846016324, 842157451, 426240533, 2038400408}},
		{3 << 61, []int{948411750761821893, 6270680924470119198, 1232277748802727603, 3646033461264484967, 1419019905952707146, 1066504397512736496}},
		{math.MaxInt64, []int{6153751930670807635, 7481402689364730655, 4562656288197273133, 6707874249639748198, 4405104653932100142, 2120584818855951849}},
	}
	r := New(1984)
	for _, c := range want {
		for i, v := range c.vals {
			if got := r.Intn(c.n); got != v {
				t.Fatalf("Intn(%d) draw %d = %d, want %d", c.n, i, got, v)
			}
		}
	}
}

// TestGeometricPinnedSequence pins one stream's Geometric draws at the
// success probabilities the workload catalog uses (p = 1 draws
// nothing).
func TestGeometricPinnedSequence(t *testing.T) {
	want := []struct {
		p    float64
		vals []int
	}{
		{1, []int{0, 0, 0, 0, 0, 0}},
		{0.5, []int{0, 0, 0, 0, 1, 0}},
		{1.0 / 3, []int{1, 0, 2, 2, 2, 4}},
		{0.1, []int{2, 3, 7, 6, 0, 14}},
		{1.0 / 48, []int{34, 43, 26, 7, 50, 98}},
		{1.0 / 3000, []int{437, 4451, 2989, 3173, 73, 8125}},
	}
	r := New(1985)
	for _, c := range want {
		for i, v := range c.vals {
			if got := r.Geometric(c.p); got != v {
				t.Fatalf("Geometric(%g) draw %d = %d, want %d", c.p, i, got, v)
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func TestGeometricPanicsOnBadP(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%g) did not panic", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

func TestNewZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func TestBoolProbabilities(t *testing.T) {
	r := New(31)
	trues := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	frac := float64(trues) / trials
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("Bool(0.25) true fraction = %g", frac)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
}
