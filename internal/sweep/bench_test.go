package sweep

import (
	"testing"

	"subcache/internal/synth"
)

// benchRefs keeps the benchmark grid representative (warm caches, real
// contention) while fast enough for -bench=.; the full-scale numbers are
// perfbench's table7-grid workload, whose per-layer figures are
// committed in BENCH_layers.json.
const benchRefs = 20000

// BenchmarkSweepTable7 regenerates one architecture's full Table 7 grid
// (net 64/256/1024, every block/sub-block organisation) with each
// engine.  The "passes" metric is the number of trace iterations per
// regeneration -- the quantity the single-pass multipass kernel exists
// to cut (>= 5x on this grid) -- and "pts" the organisation count.
func BenchmarkSweepTable7(b *testing.B) {
	pts := Grid([]int{64, 256, 1024}, synth.PDP11.WordSize())
	for _, eng := range []Engine{Reference, MultiPass} {
		b.Run(eng.String(), func(b *testing.B) {
			var passes int
			for i := 0; i < b.N; i++ {
				res, err := Run(Request{
					Arch:   synth.PDP11,
					Points: pts,
					Refs:   benchRefs,
					Engine: eng,
				})
				if err != nil {
					b.Fatal(err)
				}
				passes = res.TracePasses
			}
			b.ReportMetric(float64(passes), "passes")
			b.ReportMetric(float64(len(pts)), "pts")
		})
	}
}
