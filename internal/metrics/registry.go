package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Label is one name=value dimension attached to a metric. Two metrics with
// the same name but different label sets are distinct series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing value: tasks completed, dollars
// billed, breaker trips. Adding a negative delta panics.
type Counter struct {
	v float64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds delta. It panics on negative deltas: counters only go up, and a
// negative Add is a programming error that would silently corrupt merges.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic(fmt.Sprintf("metrics: counter Add(%g) with negative delta", delta))
	}
	c.v += delta
}

// Value returns the accumulated total.
func (c *Counter) Value() float64 { return c.v }

// Gauge is an instantaneous value: queue depth, warm-pool size, battery
// left. Gauges merge by maximum, so peaks survive aggregation.
type Gauge struct {
	v float64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Registry is a named collection of counters, gauges and histograms keyed
// by metric name plus labels. Lookups create metrics on first use, so
// instrumented code never checks for existence. Registries accumulated
// independently — one per worker, one per device, one per experiment cell
// — combine with Merge, and snapshots render in sorted key order so the
// export is deterministic regardless of registration order.
//
// Registry is not safe for concurrent use; give each goroutine its own and
// merge, which is the cheaper and deterministic design anyway.
type Registry struct {
	name     string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// Interned key strings: rendering name{a=1,b=2} allocates, so the
	// rendered form is cached per (name, labels) tuple and steady-state
	// metric touches reuse it without allocating. Struct-valued map keys
	// make the cache lookup itself allocation-free.
	keys1 map[labelKey1]string
	keys2 map[labelKey2]string
}

type labelKey1 struct{ name, ln, lv string }

type labelKey2 struct{ name, l1n, l1v, l2n, l2v string }

// key returns the canonical registry key for name+labels, interning the
// rendered string for the one- and two-label shapes the hot paths use.
// Three or more labels fall back to rendering every time.
func (r *Registry) key(name string, labels []Label) string {
	switch len(labels) {
	case 0:
		return name
	case 1:
		k := labelKey1{name, labels[0].Name, labels[0].Value}
		if s, ok := r.keys1[k]; ok {
			return s
		}
		s := Key(name, labels)
		if r.keys1 == nil {
			r.keys1 = make(map[labelKey1]string)
		}
		r.keys1[k] = s
		return s
	case 2:
		k := labelKey2{name, labels[0].Name, labels[0].Value, labels[1].Name, labels[1].Value}
		if s, ok := r.keys2[k]; ok {
			return s
		}
		s := Key(name, labels)
		if r.keys2 == nil {
			r.keys2 = make(map[labelKey2]string)
		}
		r.keys2[k] = s
		return s
	default:
		return Key(name, labels)
	}
}

// NewRegistry returns an empty registry with the given name.
func NewRegistry(name string) *Registry {
	return &Registry{
		name:     name,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Name returns the registry name.
func (r *Registry) Name() string { return r.name }

// Key renders a metric name plus labels into the canonical registry key:
// name{a=1,b=2} with labels sorted by name. The empty label set renders as
// the bare name.
func Key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	k := r.key(name, labels)
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	k := r.key(name, labels)
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for name+labels, creating it with the
// given bounds on first use. The bounds of an existing histogram are kept;
// mixing bounds under one key would make merges incompatible.
func (r *Registry) Histogram(name string, min, max, growth float64, labels ...Label) *Histogram {
	k := r.key(name, labels)
	h, ok := r.hists[k]
	if !ok {
		h = NewHistogram(min, max, growth)
		r.hists[k] = h
	}
	return h
}

// LatencyHistogram returns the histogram for name+labels with the standard
// latency bounds (see NewLatencyHistogram), creating it on first use.
func (r *Registry) LatencyHistogram(name string, labels ...Label) *Histogram {
	k := r.key(name, labels)
	h, ok := r.hists[k]
	if !ok {
		h = NewLatencyHistogram()
		r.hists[k] = h
	}
	return h
}

// Merge folds o into r: counters add, gauges take the maximum (peaks
// survive), histograms merge observation-wise. Metrics present only in o
// are adopted (copied, not aliased). Histograms sharing a key but not a
// bucket geometry abort with an error; r is left partially merged in that
// case, so treat an error as fatal for the receiving registry.
func (r *Registry) Merge(o *Registry) error {
	if o == nil {
		return nil
	}
	for k, oc := range o.counters {
		r.counterByKey(k).Add(oc.v)
	}
	for k, og := range o.gauges {
		g := r.gaugeByKey(k)
		if og.v > g.v {
			g.v = og.v
		}
	}
	for k, oh := range o.hists {
		h, ok := r.hists[k]
		if !ok {
			// Clone the exact bucket geometry; deriving bounds and calling
			// NewHistogram could mis-size it by a rounding step. The clone
			// starts small, and Merge densifies it only if oh is dense.
			h = &Histogram{
				min:     oh.min,
				growth:  oh.growth,
				logG:    oh.logG,
				n:       oh.n,
				max:     math.Inf(-1),
				minSeen: math.Inf(1),
			}
			r.hists[k] = h
		}
		if err := h.Merge(oh); err != nil {
			return fmt.Errorf("metrics: merging %q: %w", k, err)
		}
	}
	return nil
}

func (r *Registry) counterByKey(k string) *Counter {
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

func (r *Registry) gaugeByKey(k string) *Gauge {
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Point is one row of a registry snapshot. Histograms flatten into their
// summary statistics so a snapshot is a plain list of numbers.
type Point struct {
	Kind  string // "counter", "gauge" or "histogram"
	Key   string // canonical name{labels} key
	Stat  string // "" for counter/gauge; count|mean|p50|p95|p99|max for histograms
	Value float64
}

// Snapshot returns every metric as rows sorted by (kind, key, stat): a
// deterministic flat view for export and assertions.
func (r *Registry) Snapshot() []Point {
	var pts []Point
	for k, c := range r.counters {
		pts = append(pts, Point{Kind: "counter", Key: k, Value: c.v})
	}
	for k, g := range r.gauges {
		pts = append(pts, Point{Kind: "gauge", Key: k, Value: g.v})
	}
	for k, h := range r.hists {
		pts = append(pts,
			Point{Kind: "histogram", Key: k, Stat: "count", Value: float64(h.Count())},
			Point{Kind: "histogram", Key: k, Stat: "mean", Value: h.Mean()},
			Point{Kind: "histogram", Key: k, Stat: "p50", Value: h.Quantile(0.50)},
			Point{Kind: "histogram", Key: k, Stat: "p95", Value: h.Quantile(0.95)},
			Point{Kind: "histogram", Key: k, Stat: "p99", Value: h.Quantile(0.99)},
			Point{Kind: "histogram", Key: k, Stat: "max", Value: h.Max()},
		)
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Kind != pts[j].Kind {
			return pts[i].Kind < pts[j].Kind
		}
		if pts[i].Key != pts[j].Key {
			return pts[i].Key < pts[j].Key
		}
		return pts[i].Stat < pts[j].Stat
	})
	return pts
}

// WriteCSV writes the snapshot as CSV with a kind,metric,stat,value
// header. Rows stream through a buffered writer rather than rendering
// the whole export in memory first. Metric and label names pass through
// the canonical export sanitizer (see sanitize.go) shared with the
// Prometheus writer, so one registered name exports identically in every
// format; names that are already valid identifiers — all of them, today
// — render unchanged.
func (r *Registry) WriteCSV(w io.Writer) error {
	b := bufio.NewWriter(w)
	b.WriteString("kind,metric,stat,value\n")
	for _, p := range r.Snapshot() {
		b.WriteString(p.Kind)
		b.WriteByte(',')
		b.WriteString(csvCell(SanitizeKey(p.Key)))
		b.WriteByte(',')
		b.WriteString(p.Stat)
		b.WriteByte(',')
		b.WriteString(FormatFloat(p.Value))
		b.WriteByte('\n')
	}
	return b.Flush()
}

// WriteJSONL writes the snapshot as one JSON object per line, streamed
// through a buffered writer. Names are sanitized exactly as in WriteCSV.
func (r *Registry) WriteJSONL(w io.Writer) error {
	b := bufio.NewWriter(w)
	for _, p := range r.Snapshot() {
		b.WriteString(`{"kind":`)
		b.WriteString(strconv.Quote(p.Kind))
		b.WriteString(`,"metric":`)
		b.WriteString(strconv.Quote(SanitizeKey(p.Key)))
		if p.Stat != "" {
			b.WriteString(`,"stat":`)
			b.WriteString(strconv.Quote(p.Stat))
		}
		b.WriteString(`,"value":`)
		b.WriteString(FormatFloat(p.Value))
		b.WriteString("}\n")
	}
	return b.Flush()
}

// FormatFloat renders v with the shortest round-trippable representation,
// so exports are byte-stable across runs and platforms.
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// csvCell quotes a cell when it contains CSV metacharacters.
func csvCell(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
