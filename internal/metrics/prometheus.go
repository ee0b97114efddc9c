package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format, version 0.0.4: one `# HELP` and one `# TYPE` line per metric
// family followed by its samples, counters and gauges as single samples,
// histograms as cumulative `_bucket` samples (with the canonical `+Inf`
// bucket equal to `_count`) plus `_sum` and `_count`.
//
// Metric and label names pass through the canonical sanitizer
// (SanitizeMetricName / SanitizeLabelName), label values are escaped per
// the format, and families and series render in sorted order, so the
// output for a given registry state is deterministic byte for byte.
//
// Two raw metric names that sanitize onto the same family name must
// carry the same metric kind; a kind clash returns an error and writes
// no further output.
func WritePrometheus(w io.Writer, reg *Registry) error {
	type series struct {
		labels []Label
		c      *Counter
		g      *Gauge
		h      *Histogram
	}
	type family struct {
		kind   string
		series []series
	}

	fams := make(map[string]*family)
	add := func(key, kind string, s series) error {
		rawName, labels := ParseKey(key)
		name := SanitizeMetricName(rawName)
		f, ok := fams[name]
		if !ok {
			f = &family{kind: kind}
			fams[name] = f
		} else if f.kind != kind {
			return fmt.Errorf("metrics: family %q is both %s and %s after sanitization", name, f.kind, kind)
		}
		s.labels = make([]Label, len(labels))
		for i, l := range labels {
			s.labels[i] = Label{Name: SanitizeLabelName(l.Name), Value: l.Value}
		}
		f.series = append(f.series, s)
		return nil
	}

	for k, c := range reg.counters {
		if err := add(k, "counter", series{c: c}); err != nil {
			return err
		}
	}
	for k, g := range reg.gauges {
		if err := add(k, "gauge", series{g: g}); err != nil {
			return err
		}
	}
	for k, h := range reg.hists {
		if err := add(k, "histogram", series{h: h}); err != nil {
			return err
		}
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	b := bufio.NewWriter(w)
	for _, name := range names {
		f := fams[name]
		sort.Slice(f.series, func(i, j int) bool {
			return labelString(f.series[i].labels) < labelString(f.series[j].labels)
		})
		fmt.Fprintf(b, "# HELP %s offload registry %s %s.\n", name, f.kind, name)
		fmt.Fprintf(b, "# TYPE %s %s\n", name, f.kind)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				writeSample(b, name, s.labels, "", "", s.c.Value())
			case s.g != nil:
				writeSample(b, name, s.labels, "", "", s.g.Value())
			case s.h != nil:
				writeHistogram(b, name, s.labels, s.h)
			}
		}
	}
	return b.Flush()
}

// writeHistogram renders one histogram series: cumulative buckets at the
// upper edge of every non-empty bucket (sparse buckets are valid — the
// cumulative count simply doesn't change across an empty one), the
// mandatory `+Inf` bucket equal to the observation count, then the exact
// sum and count. The top catch-all bucket has no finite upper edge (it
// absorbs overflow), so its observations appear only in `+Inf`.
func writeHistogram(b *bufio.Writer, name string, labels []Label, h *Histogram) {
	cum := uint64(0)
	if h.under > 0 {
		cum = h.under
		writeSample(b, name, labels, "_bucket", FormatFloat(h.min), float64(cum))
	}
	bucket := func(i int, c uint64) {
		// The overflow bucket has no honest finite upper edge.
		if c == 0 || i == int(h.n)-1 {
			return
		}
		cum += c
		edge := h.min * math.Pow(h.growth, float64(i+1))
		writeSample(b, name, labels, "_bucket", FormatFloat(edge), float64(cum))
	}
	if h.buckets == nil {
		// Small mode: each run of equal sorted indices is one bucket.
		idx := h.small[:h.held()]
		for j := 0; j < len(idx); {
			k := j + 1
			for k < len(idx) && idx[k] == idx[j] {
				k++
			}
			bucket(int(idx[j]), uint64(k-j))
			j = k
		}
	} else {
		for i, c := range h.buckets {
			bucket(i, c)
		}
	}
	writeSample(b, name, labels, "_bucket", "+Inf", float64(h.count))
	writeSample(b, name, labels, "_sum", "", h.sum)
	writeSample(b, name, labels, "_count", "", float64(h.count))
}

// writeSample renders one sample line. le, when non-empty, is appended
// as the trailing `le` label (histogram buckets).
func writeSample(b *bufio.Writer, name string, labels []Label, suffix, le string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 || le != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		if le != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(FormatFloat(v))
	b.WriteByte('\n')
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// labelString renders labels for sorting series within a family.
func labelString(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}
