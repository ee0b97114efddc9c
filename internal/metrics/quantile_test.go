package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// scanQuantile is Quantile as it was before the top-down walk: one
// ascending scan over every bucket. The fuzz target holds Quantile to it
// bit for bit.
func scanQuantile(h *Histogram, q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	v := h.max
	seen := h.under
	if seen >= target {
		v = h.min
	} else {
		for i, c := range h.buckets {
			seen += c
			if seen >= target {
				v = h.min * math.Pow(h.growth, float64(i+1))
				break
			}
		}
	}
	if v > h.max {
		v = h.max
	}
	if v < h.minSeen {
		v = h.minSeen
	}
	return v
}

// fuzzValue maps eight fuzz bytes onto an observation: mostly latencies
// spread over the whole bucket range, plus the edge cases a histogram
// must survive (zero, negatives, underflow, values past the top edge,
// ±Inf and NaN).
func fuzzValue(b []byte) float64 {
	u := binary.LittleEndian.Uint64(b)
	switch u % 16 {
	case 0:
		return 0
	case 1:
		return -float64(u>>8) / 1e3
	case 2:
		return 1e-9 * float64(u>>40)
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	case 5:
		return math.NaN()
	case 6:
		return 1e7 + float64(u>>20)
	case 7:
		return math.Float64frombits(u) // any bit pattern at all
	}
	// 10^-6 .. 10^6, the latency histogram's span.
	return math.Pow(10, float64(u>>11)/float64(1<<53)*12-6)
}

// FuzzHistogramQuantileMatchesScan observes fuzzed values into two
// histograms, merges them into a third, and requires Quantile to equal
// the ascending reference scan bit for bit on all three, at the fuzzed
// quantile and at a fixed ladder of quantiles either side of the median.
func FuzzHistogramQuantileMatchesScan(f *testing.F) {
	f.Add([]byte{}, 0.99, uint8(0))
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"), 0.5, uint8(1))
	f.Add(make([]byte, 64), 1.0, uint8(3))
	f.Add([]byte("latencies of an attempt, hedged at the p99 of its peers"), 0.51, uint8(2))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.5000001, 0.75, 0.9, 0.99, 0.999, 1}
	f.Fuzz(func(t *testing.T, data []byte, q float64, split uint8) {
		if !(q >= 0 && q <= 1) {
			q = math.Abs(math.Mod(q, 1))
			if q != q {
				q = 0.99
			}
		}
		a, b := NewLatencyHistogram(), NewLatencyHistogram()
		for i := 0; i+8 <= len(data); i += 8 {
			h := a
			if split > 0 && (i/8)%int(split) == 0 {
				h = b
			}
			h.Observe(fuzzValue(data[i : i+8]))
		}
		m := NewLatencyHistogram()
		for _, h := range []*Histogram{a, b} {
			if err := m.Merge(h); err != nil {
				t.Fatal(err)
			}
		}
		for name, h := range map[string]*Histogram{"a": a, "b": b, "merged": m} {
			held := h.under
			for _, c := range h.buckets {
				held += c
			}
			if held != h.count {
				t.Fatalf("%s: buckets hold %d observations, Count %d", name, held, h.count)
			}
			for _, x := range append(qs, q) {
				got, want := h.Quantile(x), scanQuantile(h, x)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Quantile(%v) = %v, ascending scan %v", name, x, got, want)
				}
			}
		}
	})
}

// TestHistogramObserveNonFinite: +Inf lands in the top bucket with Max
// exact, -Inf underflows, and NaN is dropped without touching any field.
// Converting a NaN or infinite bucket position to int yields MinInt64 on
// amd64, so neither may reach the bucket index.
func TestHistogramObserveNonFinite(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name     string
		obs      []float64
		count    uint64
		max, min float64
		top      uint64 // observations in the top bucket
		under    uint64
	}{
		{"+Inf", []float64{inf}, 1, inf, inf, 1, 0},
		{"+Inf among finite", []float64{1, inf, 2}, 3, inf, 1, 1, 0},
		{"-Inf", []float64{-inf, 3}, 2, 3, -inf, 0, 1},
		{"NaN alone", []float64{math.NaN()}, 0, 0, 0, 0, 0},
		{"NaN among finite", []float64{2, math.NaN(), 4}, 2, 4, 2, 0, 0},
		{"past the top edge", []float64{1e9}, 1, 1e9, 1e9, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewLatencyHistogram()
			for _, v := range tc.obs {
				h.Observe(v)
			}
			if h.Count() != tc.count || h.Max() != tc.max || h.Min() != tc.min ||
				h.buckets[len(h.buckets)-1] != tc.top || h.under != tc.under {
				t.Fatalf("count %d max %v min %v top bucket %d under %d, want %d %v %v %d %d",
					h.Count(), h.Max(), h.Min(), h.buckets[len(h.buckets)-1], h.under,
					tc.count, tc.max, tc.min, tc.top, tc.under)
			}
			if math.IsNaN(h.Sum()) {
				t.Fatalf("Sum = NaN: a dropped NaN reached it")
			}
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				if got := h.Quantile(q); math.IsNaN(got) {
					t.Fatalf("Quantile(%v) = NaN", q)
				}
			}
		})
	}
}

// TestHistogramNaNTouchesNothing compares every field, not just the
// exported views, before and after a NaN.
func TestHistogramNaNTouchesNothing(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(0.25)
	before := fmt.Sprintf("%+v", *h)
	h.Observe(math.NaN())
	if after := fmt.Sprintf("%+v", *h); after != before {
		t.Fatalf("NaN changed the histogram:\n%s\n%s", before, after)
	}
}
