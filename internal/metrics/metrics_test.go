package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"offload/internal/rng"
)

func TestHistogramBasics(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if math.Abs(h.Mean()-50.5) > 1e-9 {
		t.Fatalf("Mean = %g, want exact 50.5", h.Mean())
	}
	if h.Max() != 100 || h.Min() != 1 {
		t.Fatalf("Min/Max = %g/%g", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewLatencyHistogram()
	src := rng.New(1)
	var values []float64
	for i := 0; i < 50000; i++ {
		v := src.LogNormal(0, 1.5)
		values = append(values, v)
		h.Observe(v)
	}
	sort.Float64s(values)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		exact := values[int(q*float64(len(values)))-1]
		got := h.Quantile(q)
		if math.Abs(got-exact)/exact > 0.08 {
			t.Errorf("Quantile(%g) = %g, exact %g (err > 8%%)", q, got, exact)
		}
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewLatencyHistogram()
	src := rng.New(2)
	for i := 0; i < 1000; i++ {
		h.Observe(src.Exp(0.1))
	}
	f := func(a, b uint8) bool {
		q1 := float64(a%101) / 100
		q2 := float64(b%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return h.Quantile(q1) <= h.Quantile(q2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramUnderflowAndOverflow(t *testing.T) {
	h := NewHistogram(1, 100, 1.5)
	h.Observe(0)      // underflow
	h.Observe(-5)     // underflow
	h.Observe(1e9)    // clamps to top bucket
	h.Observe(0.0001) // below min
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Quantile(1); got < 100 {
		t.Fatalf("Quantile(1) = %g, want >= max bucket", got)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 1.5) },
		func() { NewHistogram(10, 5, 1.5) },
		func() { NewHistogram(1, 10, 1.0) },
		func() { NewHistogram(math.NaN(), 1, 1.05) },
		func() { NewHistogram(1, math.NaN(), 1.05) },
		func() { NewHistogram(1, 2, math.NaN()) },
		func() { NewHistogram(1, math.Inf(1), 1.05) },
		func() { NewHistogram(1, 2, math.Inf(1)) },
		func() { NewHistogram(math.Inf(1), math.Inf(1), 1.05) },
		func() { NewHistogram(1e-300, 1e300, 1+1e-15) }, // past MaxInt32 buckets
		func() { NewLatencyHistogram().Quantile(1.5) },
	} {
		func() {
			defer func() {
				// A runtime panic (makeslice) is not the bounds check.
				if r := recover(); !strings.HasPrefix(fmt.Sprint(r), "metrics: ") {
					t.Errorf("panic %v, want a metrics: panic", r)
				}
			}()
			f()
		}()
	}
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 || s.N() != 0 {
		t.Fatal("empty summary not zeroed")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %g, want 5", s.Mean())
	}
	// Sample variance of that classic dataset is 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %g, want %g", s.Variance(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g", s.Min(), s.Max())
	}
	if math.Abs(s.Sum()-40) > 1e-9 {
		t.Fatalf("Sum = %g, want 40", s.Sum())
	}
}

func TestSummaryMatchesNaiveComputation(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e15 {
				vals = append(vals, v)
			}
		}
		if len(vals) < 2 {
			return true
		}
		var s Summary
		sum := 0.0
		for _, v := range vals {
			s.Observe(v)
			sum += v
		}
		mean := sum / float64(len(vals))
		scale := math.Max(math.Abs(mean), 1)
		return math.Abs(s.Mean()-mean) < 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("E1: policies", "policy", "mean_s", "cost_usd")
	tbl.AddRow("local", "12.5", "0")
	tbl.AddRowf("cloud", 3.25, 0.000125)
	out := tbl.String()
	if !strings.Contains(out, "== E1: policies ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "policy") || !strings.Contains(out, "cloud") {
		t.Errorf("table content missing:\n%s", out)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow("x,y", `say "hi"`)
	csv := tbl.CSV()
	want := "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tbl := NewTable("t", "a", "b", "c")
	tbl.AddRow("only")
	if !strings.Contains(tbl.CSV(), "only,,") {
		t.Fatalf("short row not padded: %q", tbl.CSV())
	}
}

func TestTableOverlongRowPanics(t *testing.T) {
	tbl := NewTable("t", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("overlong row did not panic")
		}
	}()
	tbl.AddRow("1", "2")
}
