package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled to
// keep the repository dependency-free.  WritePromText renders a
// Snapshot; ValidatePromText is the strict consumer-side check the CI
// smoke runs against a live scrape, the same role eventcheck plays for
// the JSONL stream.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promFloat renders a sample value the way Prometheus clients do:
// shortest round-trip representation.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promWriter accumulates families in deterministic order.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) family(name, typ, help string) {
	p.printf("# HELP %s %s\n", name, help)
	p.printf("# TYPE %s %s\n", name, typ)
}

// histSeries writes one histogram family's samples: the cumulative
// buckets, +Inf, _sum and _count.
func (p *promWriter) histSeries(name string, s *HistSnap) {
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.N
		if b.LoNanos >= overflowLo {
			// The unbounded overflow bucket has no finite upper edge;
			// its mass appears in +Inf only.
			continue
		}
		// The bucket's exclusive upper bound in seconds: 2*lo (1ns for
		// the zero bucket).
		p.printf("%s_bucket{le=\"%s\"} %d\n", name, promFloat(float64(b.hi())/1e9), cum)
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	p.printf("%s_sum %s\n", name, promFloat(float64(s.SumNanos)/1e9))
	p.printf("%s_count %d\n", name, s.Count)
}

// WritePromText renders a telemetry snapshot as Prometheus text
// exposition under the given namespace prefix.  extra adds gauges
// outside the snapshot (cache sizes, worker counts); build, when
// non-nil, emits a <ns>_build_info gauge with its entries as labels
// (injectable so the golden test is deterministic).  Output order is
// fully deterministic: build info, counters, gauges, histograms --
// each sorted by name.
func WritePromText(w io.Writer, ns string, s *Snapshot, extra map[string]float64, build map[string]string) error {
	p := &promWriter{w: w}

	if build != nil {
		keys := make([]string, 0, len(build))
		for k := range build {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf(`%s="%s"`, k, promEscape(build[k])))
		}
		name := ns + "_build_info"
		p.family(name, "gauge", "Build information as labels; value is always 1.")
		p.printf("%s{%s} 1\n", name, strings.Join(parts, ","))
	}

	cnames := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		cnames = append(cnames, n)
	}
	sort.Strings(cnames)
	for _, n := range cnames {
		name := ns + "_" + n + "_total"
		p.family(name, "counter", "Monotonic counter "+n+" (see docs/OBSERVABILITY.md).")
		p.printf("%s %d\n", name, s.Counters[n])
	}

	// Gauges: snapshot gauges then caller extras, one sorted space.
	type gauge struct {
		name string
		val  float64
	}
	var gauges []gauge
	for n, v := range s.Gauges {
		gauges = append(gauges, gauge{ns + "_" + n, float64(v)})
	}
	for n, v := range extra {
		gauges = append(gauges, gauge{ns + "_" + n, v})
	}
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	for _, g := range gauges {
		p.family(g.name, "gauge", "Instantaneous value (see docs/OBSERVABILITY.md).")
		p.printf("%s %s\n", g.name, promFloat(g.val))
	}

	hnames := make([]string, 0, len(s.Hists))
	for n, hs := range s.Hists {
		if hs != nil && hs.Count != 0 {
			hnames = append(hnames, n)
		}
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		name := ns + "_" + n + "_seconds"
		p.family(name, "histogram", "Latency distribution of "+n+" (log2 buckets).")
		p.histSeries(name, s.Hists[n])
	}
	return p.err
}

// PromStats summarises a validated exposition.
type PromStats struct {
	// Families counts metric families, Series distinct label sets,
	// Samples sample lines.
	Families int
	Series   int
	Samples  int
}

var (
	promMetricRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// baseFamily strips a histogram sample suffix back to its family name.
func baseFamily(name string) (string, string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf), suf
		}
	}
	return name, ""
}

// parsePromLabels parses `name{a="b",c="d"} value` bodies.  Returns
// the label map and the remainder after the closing brace.
func parsePromLabels(s string, line int) (map[string]string, string, error) {
	labels := make(map[string]string)
	rest := s
	for {
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, "", fmt.Errorf("line %d: malformed label pair %q", line, rest)
		}
		name := strings.TrimSpace(rest[:eq])
		if !promLabelRe.MatchString(name) {
			return nil, "", fmt.Errorf("line %d: bad label name %q", line, name)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("line %d: label %s value not quoted", line, name)
		}
		rest = rest[1:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return nil, "", fmt.Errorf("line %d: dangling escape in label %s", line, name)
				}
				i++
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("line %d: bad escape \\%c in label %s", line, rest[i], name)
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			return nil, "", fmt.Errorf("line %d: unterminated label value for %s", line, name)
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("line %d: duplicate label %s", line, name)
		}
		labels[name] = val.String()
		rest = rest[i+1:]
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		return nil, "", fmt.Errorf("line %d: expected ',' or '}' after label %s", line, name)
	}
}

// labelKey canonicalises a label set minus `le`, for grouping a
// histogram family's series.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// seriesKey canonicalises a full label set, for duplicate detection.
func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		fmt.Fprintf(&b, "{%s=%q}", k, labels[k])
	}
	return b.String()
}

// ValidatePromText strictly parses a Prometheus text exposition:
// comment grammar (# HELP / # TYPE with a known type, TYPE at most
// once per family and before its samples), metric and label name
// syntax, quoted/escaped label values, parseable float values, no
// duplicate series, family contiguity (a family's samples may not
// interleave with another's), and histogram coherence per series set:
// `le` strictly increasing with cumulative non-decreasing counts, a
// `+Inf` bucket present and equal to `_count`, and `_sum` present.
// This is the check CI runs against a live sweepd scrape.
func ValidatePromText(r io.Reader) (PromStats, error) {
	var st PromStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	types := make(map[string]string) // family -> declared type
	helps := make(map[string]bool)
	seen := make(map[string]bool) // full series keys
	finished := make(map[string]bool)
	current := "" // family whose block we are inside
	samples := make(map[string][]promSample)

	closeFamily := func(fam string) {
		if fam != "" {
			finished[fam] = true
		}
	}

	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), " \t")
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.SplitN(text, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				// Other comments are legal and ignored.
				continue
			}
			fam := fields[2]
			if !promMetricRe.MatchString(fam) {
				return st, fmt.Errorf("line %d: bad metric name %q in %s", line, fam, fields[1])
			}
			if fam != current {
				closeFamily(current)
				if finished[fam] {
					return st, fmt.Errorf("line %d: family %s reopened (samples must be contiguous)", line, fam)
				}
				current = fam
			}
			if fields[1] == "HELP" {
				if helps[fam] {
					return st, fmt.Errorf("line %d: second HELP for %s", line, fam)
				}
				helps[fam] = true
				continue
			}
			if len(fields) < 4 {
				return st, fmt.Errorf("line %d: TYPE %s missing type", line, fam)
			}
			typ := strings.TrimSpace(fields[3])
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return st, fmt.Errorf("line %d: unknown type %q for %s", line, typ, fam)
			}
			if _, dup := types[fam]; dup {
				return st, fmt.Errorf("line %d: second TYPE for %s", line, fam)
			}
			if len(samples[fam]) > 0 {
				return st, fmt.Errorf("line %d: TYPE for %s after its samples", line, fam)
			}
			types[fam] = typ
			continue
		}

		// Sample line: name[{labels}] value [timestamp]
		name := text
		labels := map[string]string{}
		rest := ""
		if i := strings.IndexAny(text, "{ \t"); i >= 0 {
			name, rest = text[:i], text[i:]
		}
		if !promMetricRe.MatchString(name) {
			return st, fmt.Errorf("line %d: bad metric name %q", line, name)
		}
		if strings.HasPrefix(rest, "{") {
			var err error
			labels, rest, err = parsePromLabels(rest[1:], line)
			if err != nil {
				return st, err
			}
		}
		rest = strings.TrimSpace(rest)
		valueStr := rest
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			valueStr = rest[:i]
			ts := strings.TrimSpace(rest[i:])
			if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
				return st, fmt.Errorf("line %d: bad timestamp %q", line, ts)
			}
		}
		value, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			return st, fmt.Errorf("line %d: bad sample value %q", line, valueStr)
		}

		fam, _ := baseFamily(name)
		if types[fam] != "histogram" && types[fam] != "summary" {
			fam = name
		}
		if fam != current {
			closeFamily(current)
			if finished[fam] {
				return st, fmt.Errorf("line %d: family %s reopened (samples must be contiguous)", line, fam)
			}
			current = fam
		}
		sk := seriesKey(name, labels)
		if seen[sk] {
			return st, fmt.Errorf("line %d: duplicate series %s", line, sk)
		}
		seen[sk] = true
		samples[fam] = append(samples[fam], promSample{name: name, labels: labels, value: value, line: line})
		st.Samples++
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("line %d: %w", line, err)
	}
	closeFamily(current)
	st.Families = len(samples)
	st.Series = len(seen)

	// Histogram coherence, per family and label set.
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		type group struct {
			buckets  []promSample
			sum      *promSample
			count    *promSample
			firstAt  int
			infValue float64
			hasInf   bool
		}
		groups := make(map[string]*group)
		for i := range samples[fam] {
			sp := samples[fam][i]
			key := labelKey(sp.labels)
			g := groups[key]
			if g == nil {
				g = &group{firstAt: sp.line}
				groups[key] = g
			}
			_, suf := baseFamily(sp.name)
			switch suf {
			case "_bucket":
				le, ok := sp.labels["le"]
				if !ok {
					return st, fmt.Errorf("line %d: %s bucket without le label", sp.line, fam)
				}
				if le == "+Inf" {
					g.hasInf, g.infValue = true, sp.value
				}
				g.buckets = append(g.buckets, sp)
			case "_sum":
				g.sum = &samples[fam][i]
			case "_count":
				g.count = &samples[fam][i]
			default:
				return st, fmt.Errorf("line %d: histogram %s has plain sample %s", sp.line, fam, sp.name)
			}
		}
		for key, g := range groups {
			lastLe := math.Inf(-1)
			lastCum := -1.0
			for _, b := range g.buckets {
				leStr := b.labels["le"]
				le := math.Inf(1)
				if leStr != "+Inf" {
					var err error
					le, err = strconv.ParseFloat(leStr, 64)
					if err != nil {
						return st, fmt.Errorf("line %d: bad le %q", b.line, leStr)
					}
				}
				if le <= lastLe {
					return st, fmt.Errorf("line %d: %s{%s} le %q not increasing", b.line, fam, key, leStr)
				}
				if b.value < lastCum {
					return st, fmt.Errorf("line %d: %s{%s} bucket count %v below previous %v (not cumulative)", b.line, fam, key, b.value, lastCum)
				}
				lastLe, lastCum = le, b.value
			}
			if !g.hasInf {
				return st, fmt.Errorf("near line %d: histogram %s{%s} missing +Inf bucket", g.firstAt, fam, key)
			}
			if g.count == nil {
				return st, fmt.Errorf("near line %d: histogram %s{%s} missing _count", g.firstAt, fam, key)
			}
			if g.sum == nil {
				return st, fmt.Errorf("near line %d: histogram %s{%s} missing _sum", g.firstAt, fam, key)
			}
			if g.infValue != g.count.value {
				return st, fmt.Errorf("line %d: histogram %s{%s} +Inf bucket %v != _count %v", g.count.line, fam, key, g.infValue, g.count.value)
			}
		}
	}
	return st, nil
}
