package metrics

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Kind is a column's number format: it owns how the column's float cells
// render. Integers render in decimal, text as itself and a Missing cell
// as "-", whatever the kind.
type Kind uint8

const (
	Auto    Kind = iota // %.4g
	Exact               // shortest round-trip form, as FormatFloat
	Seconds             // %.3g then "s": 12.3s, 1.37e+05s
	USD                 // $0, $5.00e-04 below a tenth of a cent, else $1.5000
	Percent             // a fraction as a percentage: 0.123 is 12.3%
	MilliJ              // 500mJ below a joule, else joules: 2.5J
	Fixed3              // %.3f
	Whole               // %.0f
	Ratio               // %.1f then "x"
	Ratio2              // %.2f then "x"
)

var kindVerbs = [...]string{Auto: "%.4g", Seconds: "%.3gs", Fixed3: "%.3f", Whole: "%.0f", Ratio: "%.1fx", Ratio2: "%.2fx"}

// Format renders v in the kind's format.
func (k Kind) Format(v float64) string {
	switch k {
	case Exact:
		return FormatFloat(v)
	case USD:
		switch {
		case v == 0:
			return "$0"
		case v < 0.001:
			return fmt.Sprintf("$%.2e", v)
		}
		return fmt.Sprintf("$%.4f", v)
	case Percent:
		return fmt.Sprintf("%.1f%%", 100*v)
	case MilliJ:
		if v >= 1000 {
			return fmt.Sprintf("%.3gJ", v/1000)
		}
		return fmt.Sprintf("%.3gmJ", v)
	}
	return fmt.Sprintf(kindVerbs[k], v)
}

type missing struct{}

// Missing is the value of a cell that has none; it renders as "-".
var Missing any = missing{}

// cell types; the zero cell is empty text, which pads a short row.
const (
	textCell byte = iota
	floatCell
	intCell
	missingCell
)

// cell is one stored value: a float, an integer (num and its decimal
// text), text, or Missing.
type cell struct {
	typ  byte
	num  float64
	text string
}

func newCell(v any) cell {
	switch x := v.(type) {
	case string:
		return cell{text: x}
	case float64:
		return cell{typ: floatCell, num: x}
	case float32:
		return cell{typ: floatCell, num: float64(x)}
	case int:
		return cell{typ: intCell, num: float64(x), text: strconv.Itoa(x)}
	case int64:
		return cell{typ: intCell, num: float64(x), text: strconv.FormatInt(x, 10)}
	case uint64:
		return cell{typ: intCell, num: float64(x), text: strconv.FormatUint(x, 10)}
	case missing:
		return cell{typ: missingCell, num: math.NaN()}
	}
	return cell{text: fmt.Sprintf("%v", v)}
}

func (c cell) render(k Kind) string {
	switch c.typ {
	case floatCell:
		return k.Format(c.num)
	case missingCell:
		return "-"
	}
	return c.text
}

// Table accumulates rows of values and renders them as aligned text (for
// terminals) or CSV (for plotting), the two output formats of the
// benchmark harness. Cells keep their values; a column's Kind formats
// them only when the table renders.
type Table struct {
	title   string
	headers []string
	kinds   []Kind
	rows    [][]cell
}

// NewTable returns a table with the given title and column headers, every
// column of kind Auto.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers, kinds: make([]Kind, len(headers))}
}

// Kinds sets the kinds of the leading columns, in header order, and
// returns the table.
func (t *Table) Kinds(kinds ...Kind) *Table {
	if len(kinds) > len(t.headers) {
		panic(fmt.Sprintf("metrics: %d kinds for a %d-column table", len(kinds), len(t.headers)))
	}
	copy(t.kinds, kinds)
	return t
}

// Title returns the table title.
func (t *Table) Title() string { return t.title }

// Add appends a row of values: strings, floats, integers, Missing, or
// anything else, which is stored as its %v text. Short rows are padded
// with empty text; long rows panic, since they indicate a programming
// error in the harness.
func (t *Table) Add(vals ...any) {
	if len(vals) > len(t.headers) {
		panic(fmt.Sprintf("metrics: row with %d cells in a %d-column table", len(vals), len(t.headers)))
	}
	row := make([]cell, len(t.headers))
	for i, v := range vals {
		row[i] = newCell(v)
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

func (t *Table) col(name string) int {
	for i, h := range t.headers {
		if h == name {
			return i
		}
	}
	panic(fmt.Sprintf("metrics: table %q has no column %q", t.title, name))
}

// Float returns the number stored in a row's named column: NaN for a
// Missing cell; a text cell panics.
func (t *Table) Float(row int, col string) float64 {
	c := t.rows[row][t.col(col)]
	if c.typ == textCell {
		panic(fmt.Sprintf("metrics: %q row %d column %q holds text %q, not a number", t.title, row, col, c.text))
	}
	return c.num
}

// Column returns every row's number in the named column, as Float.
func (t *Table) Column(name string) []float64 {
	out := make([]float64, len(t.rows))
	for i := range t.rows {
		out[i] = t.Float(i, name)
	}
	return out
}

// Text returns a row's named cell as it renders.
func (t *Table) Text(row int, col string) string {
	i := t.col(col)
	return t.rows[row][i].render(t.kinds[i])
}

// rendered returns the header row followed by every data row as text.
func (t *Table) rendered() [][]string {
	out := make([][]string, 0, len(t.rows)+1)
	out = append(out, t.headers)
	for _, row := range t.rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = c.render(t.kinds[i])
		}
		out = append(out, cells)
	}
	return out
}

// String renders the table as aligned text with a title and rule lines.
func (t *Table) String() string {
	lines := t.rendered()
	widths := make([]int, len(t.headers))
	for _, row := range lines {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	for n, row := range lines {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
		if n == 0 {
			b.WriteString(strings.Repeat("-", total-2))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// WriteCSV streams the table as RFC-4180-ish CSV with a header row
// through a buffered writer. Cells containing commas or quotes are
// quoted.
func (t *Table) WriteCSV(w io.Writer) error {
	b := bufio.NewWriter(w)
	for _, row := range t.rendered() {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvCell(c))
		}
		b.WriteByte('\n')
	}
	return b.Flush()
}

// CSV renders the table as CSV in memory; WriteCSV is the streaming
// form and the two produce identical bytes.
func (t *Table) CSV() string {
	var b strings.Builder
	t.WriteCSV(&b)
	return b.String()
}

// WriteValues writes the table's exact content to w in a binary form
// meant for hashing: the title, the column and row counts, each header
// and its kind, then each cell as its type and either the float64 bits of
// its number or its text. Two tables write the same bytes exactly when
// they hold the same values, so a digest of this stream pins the table at
// full precision.
func (t *Table) WriteValues(w io.Writer) error {
	b := bufio.NewWriter(w)
	count := func(n int) { b.Write(binary.AppendUvarint(nil, uint64(n))) }
	text := func(s string) {
		count(len(s))
		b.WriteString(s)
	}
	text(t.title)
	count(len(t.headers))
	count(len(t.rows))
	for i, h := range t.headers {
		text(h)
		b.WriteByte(byte(t.kinds[i]))
	}
	for _, row := range t.rows {
		for _, c := range row {
			b.WriteByte(c.typ)
			if c.typ == floatCell {
				b.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(c.num)))
			} else {
				text(c.text)
			}
		}
	}
	return b.Flush()
}
