package metrics

import (
	"bufio"
	"fmt"
	"io"
	"slices"
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
	// data holds every sample back to back: its time, then one value
	// per column.
	data []float64
}

// NewTimeSeries returns an empty series with the given name and column set.
func NewTimeSeries(name string, cols ...string) *TimeSeries {
	return &TimeSeries{name: name, cols: cols}
}

// Name returns the series name.
func (ts *TimeSeries) Name() string { return ts.name }

// Len returns the number of recorded samples.
func (ts *TimeSeries) Len() int { return len(ts.data) / ts.stride() }

// stride is the number of floats one sample occupies.
func (ts *TimeSeries) stride() int { return len(ts.cols) + 1 }

// Record appends one sample at time t. The number of values must match the
// column set; a mismatch is a programming error and panics.
func (ts *TimeSeries) Record(t float64, vals ...float64) {
	if len(vals) != len(ts.cols) {
		panic(fmt.Sprintf("metrics: series %q got %d values for %d columns", ts.name, len(vals), len(ts.cols)))
	}
	if cap(ts.data)-len(ts.data) < ts.stride() {
		// Double rather than take append's 1.25x growth for large
		// slices, which would copy a long series about four times over.
		ts.data = slices.Grow(ts.data, len(ts.data)+ts.stride())
	}
	ts.data = append(append(ts.data, t), vals...)
}

// Row returns the time and values of sample i; vals is a view of the
// series' storage.
func (ts *TimeSeries) Row(i int) (t float64, vals []float64) {
	n := ts.stride()
	row := ts.data[i*n : (i+1)*n : (i+1)*n]
	return row[0], row[1:]
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
	for i := 0; i < ts.Len(); i++ {
		t, vals := ts.Row(i)
		b.WriteString(FormatFloat(t))
		for _, v := range vals {
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
	for i := 0; i < ts.Len(); i++ {
		t, vals := ts.Row(i)
		b.WriteString(`{"time_s":`)
		b.WriteString(FormatFloat(t))
		for j, c := range ts.cols {
			b.WriteByte(',')
			b.WriteString(strconv.Quote(c))
			b.WriteByte(':')
			b.WriteString(FormatFloat(vals[j]))
		}
		b.WriteString("}\n")
	}
	return b.Flush()
}
