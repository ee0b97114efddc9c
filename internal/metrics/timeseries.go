package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// TimeSeries holds periodic samples of a fixed set of columns over
// simulated time: queue depths, pool sizes, utilizations. Rows append in
// sample order, and both writers render floats with the shortest
// round-trippable representation, so an export is byte-stable for a given
// sequence of Record calls.
type TimeSeries struct {
	name string
	cols []string
	rows []tsRow
}

type tsRow struct {
	t    float64
	vals []float64
}

// NewTimeSeries returns an empty series with the given name and column set.
func NewTimeSeries(name string, cols ...string) *TimeSeries {
	return &TimeSeries{name: name, cols: cols}
}

// Name returns the series name.
func (ts *TimeSeries) Name() string { return ts.name }

// Len returns the number of recorded samples.
func (ts *TimeSeries) Len() int { return len(ts.rows) }

// Record appends one sample at time t. The number of values must match the
// column set; a mismatch is a programming error and panics.
func (ts *TimeSeries) Record(t float64, vals ...float64) {
	if len(vals) != len(ts.cols) {
		panic(fmt.Sprintf("metrics: series %q got %d values for %d columns", ts.name, len(vals), len(ts.cols)))
	}
	row := tsRow{t: t, vals: make([]float64, len(vals))}
	copy(row.vals, vals)
	ts.rows = append(ts.rows, row)
}

// Row returns the time and values of sample i.
func (ts *TimeSeries) Row(i int) (t float64, vals []float64) {
	return ts.rows[i].t, ts.rows[i].vals
}

// WriteCSV writes the series with a time_s,<columns...> header, rows
// streamed through a buffered writer so a long run never materialises
// its whole export in memory.
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	b := bufio.NewWriter(w)
	b.WriteString("time_s")
	for _, c := range ts.cols {
		b.WriteByte(',')
		b.WriteString(csvCell(c))
	}
	b.WriteByte('\n')
	for _, r := range ts.rows {
		b.WriteString(FormatFloat(r.t))
		for _, v := range r.vals {
			b.WriteByte(',')
			b.WriteString(FormatFloat(v))
		}
		b.WriteByte('\n')
	}
	return b.Flush()
}

// WriteJSONL writes one JSON object per sample, keyed by column name plus
// a leading "time_s", streamed through a buffered writer.
func (ts *TimeSeries) WriteJSONL(w io.Writer) error {
	b := bufio.NewWriter(w)
	for _, r := range ts.rows {
		b.WriteString(`{"time_s":`)
		b.WriteString(FormatFloat(r.t))
		for i, c := range ts.cols {
			b.WriteByte(',')
			b.WriteString(strconv.Quote(c))
			b.WriteByte(':')
			b.WriteString(FormatFloat(r.vals[i]))
		}
		b.WriteString("}\n")
	}
	return b.Flush()
}
