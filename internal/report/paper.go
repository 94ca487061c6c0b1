package report

import (
	"fmt"

	"subcache/internal/sweep"
	"subcache/internal/synth"
)

// Table7 renders the paper's central table: for each organisation
// (rows: net/gross size, block, sub-block) the miss ratio, traffic ratio
// and nibble-mode traffic ratio for every architecture that was swept.
// Architectures appear in the paper's column order.
func Table7(results map[synth.Arch]*sweep.Result) *Table {
	archs := make([]synth.Arch, 0, len(results))
	for _, a := range synth.AllArchs() {
		if _, ok := results[a]; ok {
			archs = append(archs, a)
		}
	}
	header := []string{"net", "gross", "blk,sub"}
	for _, a := range archs {
		header = append(header,
			a.String()+" miss", a.String()+" traffic", a.String()+" nibble")
	}
	t := NewTable("Table 7. Miss and traffic ratios (4-way set associative, LRU, demand fetch)", header...)

	// Row set: union of points across architectures (word size excludes
	// some sub-blocks on 32-bit machines), ordered as Table 7.
	seen := map[sweep.Point]bool{}
	var rows []sweep.Point
	for _, a := range archs {
		for _, p := range results[a].Points() {
			if !seen[p] {
				seen[p] = true
				rows = append(rows, p)
			}
		}
	}
	sweep.SortPoints(rows)

	for _, p := range rows {
		gross := p.Config(synth.PDP11).GrossSize()
		cells := []string{
			fmt.Sprint(p.Net),
			fmt.Sprintf("%.0f", gross),
			fmt.Sprintf("%d,%d", p.Block, p.Sub),
		}
		for _, a := range archs {
			if s, ok := results[a].Summaries[p]; ok {
				cells = append(cells,
					fmt.Sprintf("%.4f", s.Miss),
					fmt.Sprintf("%.4f", s.Traffic),
					fmt.Sprintf("%.4f", s.Scaled))
			} else {
				cells = append(cells, "", "", "")
			}
		}
		t.Add(cells...)
	}
	return t
}

// Table8 renders the load-forward study (paper Table 8): miss ratio,
// traffic ratio and nibble traffic ratio for each organisation of the
// Z8000 compiler-trace sweep, flagging load-forward rows.
func Table8(res *sweep.Result) *Table {
	t := NewTable("Table 8. Load-forward results (Z8000 traces CCP, C1, C2)",
		"net", "gross", "blk,sub", "fetch", "miss", "traffic", "nibble", "redundant")
	for _, p := range res.Points() {
		s := res.Summaries[p]
		runs := res.Runs[p]
		var redundant, fills float64
		for _, r := range runs {
			redundant += float64(r.RedundantLoads)
			fills += float64(r.SubBlockFills)
		}
		redFrac := 0.0
		if fills > 0 {
			redFrac = redundant / fills
		}
		t.Add(
			fmt.Sprint(p.Net),
			fmt.Sprintf("%.0f", p.Config(synth.Z8000).GrossSize()),
			fmt.Sprintf("%d,%d", p.Block, p.Sub),
			p.Fetch.String(),
			fmt.Sprintf("%.4f", s.Miss),
			fmt.Sprintf("%.4f", s.Traffic),
			fmt.Sprintf("%.4f", s.Scaled),
			fmt.Sprintf("%.4f", redFrac),
		)
	}
	return t
}
