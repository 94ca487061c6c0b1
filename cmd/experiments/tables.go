package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"subcache/internal/cache"
	"subcache/internal/paperdata"
	"subcache/internal/report"
	"subcache/internal/sweep"
	"subcache/internal/synth"
)

// runTable6 reproduces the paper's Table 6: the IBM 360/85 sector
// organisation (16 fully-associative 1024-byte sectors, 64-byte
// sub-blocks) against 4/8/16-way set-associative caches with 64-byte
// blocks, all 16 KB, on the System/370 suite (our stand-in for the
// paper's System/360 workload).  Also reports the fraction of sector
// sub-blocks never referenced while resident (paper: 72%).
func runTable6(ctx *runCtx) (artifact, error) {
	type org struct {
		name  string
		point sweep.Point
		assoc int
	}
	orgs := []org{
		{"360/85 sector", sweep.Point{Net: 16384, Block: 1024, Sub: 64}, 16},
		{"4-way, 64B blocks", sweep.Point{Net: 16384, Block: 64, Sub: 64}, 4},
		{"8-way, 64B blocks", sweep.Point{Net: 16384, Block: 64, Sub: 64}, 8},
		{"16-way, 64B blocks", sweep.Point{Net: 16384, Block: 64, Sub: 64}, 16},
	}
	t := report.NewTable("Table 6. 360/85 sector cache vs set-associative mapping (16 KB, LRU)",
		"organisation", "miss", "relative", "untouched sub-blocks", "paper miss", "paper relative")
	paperMiss := []float64{paperdata.Table6.Sector360, paperdata.Table6.Way4,
		paperdata.Table6.Way8, paperdata.Table6.Way16}

	var base float64
	for i, o := range orgs {
		assoc := o.assoc
		res, err := ctx.run(sweep.Request{
			Arch:   synth.S370,
			Points: []sweep.Point{o.point},
			Refs:   ctx.refs,
			Override: func(c *cache.Config) {
				c.Assoc = assoc
			},
		})
		if err != nil {
			return artifact{}, err
		}
		s := res.Summaries[o.point]
		if i == 0 {
			base = s.Miss
		}
		rel := 0.0
		if base > 0 {
			rel = s.Miss / base
		}
		untouched := ""
		if o.point.Block > o.point.Sub {
			untouched = fmt.Sprintf("%.2f", 1-s.Utilization)
		}
		t.Add(o.name,
			fmt.Sprintf("%.4f", s.Miss),
			fmt.Sprintf("%.3f", rel),
			untouched,
			fmt.Sprintf("%.4f", paperMiss[i]),
			fmt.Sprintf("%.3f", paperMiss[i]/paperMiss[0]))
	}
	note := "\nPaper finds the sector cache ~3x worse than 4-way set-associative\n" +
		"and 72% of sector sub-blocks never referenced while resident.\n"
	return artifact{text: t.String() + note, csv: t.CSV()}, nil
}

// runTable7 reproduces the paper's Table 7 over all four architectures
// at net sizes 64, 256 and 1024 bytes.
func runTable7(ctx *runCtx) (artifact, error) {
	nets := []int{64, 256, 1024}
	results := map[synth.Arch]*sweep.Result{}
	for _, a := range synth.AllArchs() {
		res, err := ctx.gridSweep(a, nets)
		if err != nil {
			return artifact{}, err
		}
		results[a] = res
	}
	t := report.Table7(results)
	return artifact{text: t.String(), csv: t.CSV()}, nil
}

// table8Points lists the organisations of the paper's Table 8.
func table8Points() []sweep.Point {
	return []sweep.Point{
		{Net: 64, Block: 8, Sub: 8},
		{Net: 64, Block: 8, Sub: 2, Fetch: cache.LoadForward},
		{Net: 64, Block: 8, Sub: 2},
		{Net: 64, Block: 2, Sub: 2},
		{Net: 256, Block: 16, Sub: 16},
		{Net: 256, Block: 16, Sub: 2, Fetch: cache.LoadForward},
		{Net: 256, Block: 16, Sub: 2},
		{Net: 256, Block: 8, Sub: 8},
		{Net: 256, Block: 8, Sub: 2, Fetch: cache.LoadForward},
		{Net: 256, Block: 8, Sub: 2},
		{Net: 256, Block: 2, Sub: 2},
	}
}

// lfSweep runs the Table 8 organisations over the Z8000 compiler traces.
func (c *runCtx) lfSweep() (*sweep.Result, error) {
	c.mu.Lock()
	if r, ok := c.sweeps["lf"]; ok {
		c.mu.Unlock()
		return r, nil
	}
	c.mu.Unlock()
	res, err := c.run(sweep.Request{
		Arch:      synth.Z8000,
		Points:    table8Points(),
		Refs:      c.refs,
		Workloads: []string{"CCP", "C1", "C2"},
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.sweeps["lf"] = res
	c.mu.Unlock()
	return res, nil
}

// runTable8 reproduces the load-forward study on traces CCP, C1, C2.
func runTable8(ctx *runCtx) (artifact, error) {
	res, err := ctx.lfSweep()
	if err != nil {
		return artifact{}, err
	}
	t := report.Table8(res)

	// Append the paper's values for the same rows.
	p := report.NewTable("Paper Table 8 (for comparison)",
		"net", "blk,sub", "LF", "paper miss", "paper traffic")
	var keys []paperdata.LFKey
	for k := range paperdata.Table8 {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Net != b.Net {
			return a.Net < b.Net
		}
		if a.Block != b.Block {
			return a.Block > b.Block
		}
		if a.Sub != b.Sub {
			return a.Sub > b.Sub
		}
		return a.LoadForward && !b.LoadForward
	})
	for _, k := range keys {
		c := paperdata.Table8[k]
		lf := ""
		if k.LoadForward {
			lf = "LF"
		}
		p.Add(fmt.Sprint(k.Net), fmt.Sprintf("%d,%d", k.Block, k.Sub), lf,
			fmt.Sprintf("%.3f", c.Miss), fmt.Sprintf("%.3f", c.Traffic))
	}
	return artifact{text: t.String() + "\n" + p.String(), csv: t.CSV()}, nil
}

// runCompare prints measured-versus-paper ratios for every transcribed
// Table 7 anchor cell, plus aggregate reproduction-quality statistics
// (geometric-mean ratio and ordering agreement); EXPERIMENTS.md is
// built from this artifact.
func runCompare(ctx *runCtx) (artifact, error) {
	nets := []int{64, 256, 1024}
	t := report.NewTable("Paper vs measured (Table 7 anchors)",
		"arch", "net", "blk,sub", "paper miss", "got miss", "ratio",
		"paper traffic", "got traffic", "ratio")

	var logSumMiss, logSumTraffic float64
	var n int
	var concordant, pairs int

	for _, a := range synth.AllArchs() {
		res, err := ctx.gridSweep(a, nets)
		if err != nil {
			return artifact{}, err
		}
		cells := paperdata.Table7[a]
		var keys []paperdata.Key
		for k := range cells {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			x, y := keys[i], keys[j]
			if x.Net != y.Net {
				return x.Net < y.Net
			}
			if x.Block != y.Block {
				return x.Block > y.Block
			}
			return x.Sub > y.Sub
		})
		type mp struct{ paper, got float64 }
		var series []mp
		for _, k := range keys {
			pt := sweep.Point{Net: k.Net, Block: k.Block, Sub: k.Sub}
			s, ok := res.Summaries[pt]
			if !ok {
				continue
			}
			c := cells[k]
			t.Add(a.String(), fmt.Sprint(k.Net), fmt.Sprintf("%d,%d", k.Block, k.Sub),
				fmt.Sprintf("%.4f", c.Miss), fmt.Sprintf("%.4f", s.Miss),
				fmt.Sprintf("%.2f", s.Miss/c.Miss),
				fmt.Sprintf("%.4f", c.Traffic), fmt.Sprintf("%.4f", s.Traffic),
				fmt.Sprintf("%.2f", s.Traffic/c.Traffic))
			logSumMiss += math.Log(s.Miss / c.Miss)
			logSumTraffic += math.Log(s.Traffic / c.Traffic)
			n++
			series = append(series, mp{c.Miss, s.Miss})
		}
		// Ordering agreement within the architecture: over all pairs of
		// anchors, does the simulation order the miss ratios the same
		// way the paper does?
		for i := 0; i < len(series); i++ {
			for j := i + 1; j < len(series); j++ {
				if series[i].paper == series[j].paper {
					continue
				}
				pairs++
				if (series[i].paper < series[j].paper) == (series[i].got < series[j].got) {
					concordant++
				}
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.String())
	if n > 0 {
		fmt.Fprintf(&b, "\nanchors: %d\n", n)
		fmt.Fprintf(&b, "geometric mean got/paper: miss %.3f, traffic %.3f\n",
			math.Exp(logSumMiss/float64(n)), math.Exp(logSumTraffic/float64(n)))
	}
	if pairs > 0 {
		fmt.Fprintf(&b, "pairwise miss-ratio ordering agreement with paper: %.1f%% (%d/%d)\n",
			100*float64(concordant)/float64(pairs), concordant, pairs)
	}
	return artifact{text: b.String(), csv: t.CSV()}, nil
}

// runOptimalSubBlock checks §4.3's claim: under the nibble-mode cost
// model the traffic-optimal sub-block size roughly doubles relative to
// the linear model.
func runOptimalSubBlock(ctx *runCtx) (artifact, error) {
	res, err := ctx.gridSweep(synth.PDP11, []int{64, 256, 1024})
	if err != nil {
		return artifact{}, err
	}
	t := report.NewTable("Traffic-optimal sub-block size, linear vs nibble cost (PDP-11)",
		"net", "block", "best sub (linear)", "best sub (nibble)", "ratio")
	type key struct{ net, block int }
	bestLin := map[key]int{}
	bestNib := map[key]int{}
	minLin := map[key]float64{}
	minNib := map[key]float64{}
	for p, s := range res.Summaries {
		k := key{p.Net, p.Block}
		if v, ok := minLin[k]; !ok || s.Traffic < v {
			minLin[k], bestLin[k] = s.Traffic, p.Sub
		}
		if v, ok := minNib[k]; !ok || s.Scaled < v {
			minNib[k], bestNib[k] = s.Scaled, p.Sub
		}
	}
	var keys []key
	for k := range bestLin {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].net != keys[j].net {
			return keys[i].net < keys[j].net
		}
		return keys[i].block < keys[j].block
	})
	for _, k := range keys {
		if bestLin[k] == k.block && bestNib[k] == k.block {
			continue // a single sub-block choice: no tradeoff to report
		}
		t.Add(fmt.Sprint(k.net), fmt.Sprint(k.block),
			fmt.Sprint(bestLin[k]), fmt.Sprint(bestNib[k]),
			fmt.Sprintf("%.1f", float64(bestNib[k])/float64(bestLin[k])))
	}
	note := "\nPaper (S4.3): \"the optimum sub-block size ... approximately doubles\"\n" +
		"under nibble-mode cost relative to the standard memory interface.\n"
	return artifact{text: t.String() + note, csv: t.CSV()}, nil
}
