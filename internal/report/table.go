// Package report renders sweep results as the paper's tables and
// figures: aligned text tables, CSV series files, and ASCII
// miss-versus-traffic scatter plots standing in for Figures 1-9.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table with CSV export.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends one row.  Rows shorter than the header are padded; longer
// rows panic, since they indicate a builder bug.
func (t *Table) Add(cells ...string) {
	if len(cells) > len(t.Header) {
		panic(fmt.Sprintf("report: row has %d cells for %d columns", len(cells), len(t.Header)))
	}
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quoting cells containing
// commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
