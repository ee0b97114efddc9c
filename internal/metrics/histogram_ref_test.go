package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
)

// refHistogram is the dense Histogram that small mode was added to, kept
// verbatim as the reference the differential tests compare against: one
// bucket slice allocated up front, counts indexed directly.
type refHistogram struct {
	min     float64
	growth  float64
	logG    float64
	buckets []uint64
	top     int
	under   uint64
	count   uint64
	sum     float64
	max     float64
	minSeen float64
}

func newRefHistogram(min, max, growth float64) *refHistogram {
	if min <= 0 || max <= min || growth <= 1 {
		panic(fmt.Sprintf("metrics: bad histogram bounds min=%g max=%g growth=%g", min, max, growth))
	}
	n := int(math.Ceil(math.Log(max/min)/math.Log(growth))) + 1
	return &refHistogram{
		min:     min,
		growth:  growth,
		logG:    math.Log(growth),
		buckets: make([]uint64, n),
		max:     math.Inf(-1),
		minSeen: math.Inf(1),
	}
}

func (h *refHistogram) Observe(v float64) {
	if v != v {
		return
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v < h.minSeen {
		h.minSeen = v
	}
	if v < h.min {
		h.under++
		return
	}
	idx := len(h.buckets) - 1
	if f := math.Log(v/h.min) / h.logG; f < float64(idx) {
		idx = int(f)
	}
	h.buckets[idx]++
	if idx >= h.top {
		h.top = idx + 1
	}
}

func (h *refHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

func (h *refHistogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

func (h *refHistogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.minSeen
}

func (h *refHistogram) Quantile(q float64) float64 {
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
	} else if i := h.bucketOf(target); i >= 0 {
		v = h.min * math.Pow(h.growth, float64(i+1))
	}
	if v > h.max {
		v = h.max
	}
	if v < h.minSeen {
		v = h.minSeen
	}
	return v
}

func (h *refHistogram) bucketOf(target uint64) int {
	seen := h.count
	for i := h.top - 1; i >= 0; i-- {
		seen -= h.buckets[i]
		if seen < target {
			return i
		}
	}
	return -1
}

func (h *refHistogram) Merge(o *refHistogram) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.top = max(h.top, o.top)
	h.under += o.under
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	if o.minSeen < h.minSeen {
		h.minSeen = o.minSeen
	}
}

func (h *refHistogram) clone() *refHistogram {
	c := *h
	c.buckets = slices.Clone(h.buckets)
	return &c
}

// writeRefHistogram is writeHistogram over the dense reference.
func writeRefHistogram(b *bufio.Writer, name string, labels []Label, h *refHistogram) {
	cum := uint64(0)
	if h.under > 0 {
		cum = h.under
		writeSample(b, name, labels, "_bucket", FormatFloat(h.min), float64(cum))
	}
	for i, c := range h.buckets {
		if i == len(h.buckets)-1 {
			break
		}
		if c == 0 {
			continue
		}
		cum += c
		edge := h.min * math.Pow(h.growth, float64(i+1))
		writeSample(b, name, labels, "_bucket", FormatFloat(edge), float64(cum))
	}
	writeSample(b, name, labels, "_bucket", "+Inf", float64(h.count))
	writeSample(b, name, labels, "_sum", "", h.sum)
	writeSample(b, name, labels, "_count", "", float64(h.count))
}

// bucketCounts returns h's per-bucket counts as a dense slice in either
// storage mode, for tests that read buckets directly.
func bucketCounts(h *Histogram) []uint64 {
	if h.buckets != nil {
		return slices.Clone(h.buckets)
	}
	out := make([]uint64, h.n)
	for _, i := range h.small[:h.held()] {
		out[i]++
	}
	return out
}

// cloneHistogram copies h, bucket slice included.
func cloneHistogram(h *Histogram) *Histogram {
	c := *h
	c.buckets = slices.Clone(h.buckets)
	return &c
}

// denseCopy is h forced into dense mode.
func denseCopy(h *Histogram) *Histogram {
	c := cloneHistogram(h)
	if c.buckets == nil {
		c.densify(c.held())
	}
	return c
}

var refQuantiles = []float64{0, 1e-9, 0.01, 0.1, 0.25, 0.5, 0.5000001, 0.75, 0.9, 0.95, 0.99, 0.999, 1}

// sameAsRef fails t unless h answers every query bit for bit as r does,
// holds the same bucket counts, and renders the same Prometheus text.
func sameAsRef(t *testing.T, what string, h *Histogram, r *refHistogram) {
	t.Helper()
	bits := math.Float64bits
	if h.Count() != r.count || bits(h.Sum()) != bits(r.sum) || bits(h.Mean()) != bits(r.Mean()) ||
		bits(h.Min()) != bits(r.Min()) || bits(h.Max()) != bits(r.Max()) {
		t.Fatalf("%s: count/sum/mean/min/max %d %v %v %v %v, reference %d %v %v %v %v", what,
			h.Count(), h.Sum(), h.Mean(), h.Min(), h.Max(), r.count, r.sum, r.Mean(), r.Min(), r.Max())
	}
	if int(h.top) != r.top || h.under != r.under || !slices.Equal(bucketCounts(h), r.buckets) {
		t.Fatalf("%s: top %d under %d and bucket counts differ from the reference's top %d under %d",
			what, h.top, h.under, r.top, r.under)
	}
	for _, q := range refQuantiles {
		if got, want := h.Quantile(q), r.Quantile(q); bits(got) != bits(want) {
			t.Fatalf("%s: Quantile(%v) = %v, reference %v", what, q, got, want)
		}
	}
	labels := []Label{L("shard", "0")}
	var got, want bytes.Buffer
	gw, ww := bufio.NewWriter(&got), bufio.NewWriter(&want)
	writeHistogram(gw, "lat", labels, h)
	writeRefHistogram(ww, "lat", labels, r)
	gw.Flush()
	ww.Flush()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: Prometheus text differs:\n%s\nreference:\n%s", what, got.Bytes(), want.Bytes())
	}
}

// FuzzHistogramSmallMatchesDense observes the same fuzzed values, NaN
// and ±Inf included, into a Histogram and the dense reference, and
// requires identical answers, bucket counts and Prometheus text. It then
// merges small into small, small into dense, dense into small, each into
// itself and through Registry.Merge's clone, against the same merges of
// the reference. geo picks the latency geometry or a coarse one whose
// buckets collide often.
func FuzzHistogramSmallMatchesDense(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"), uint8(1), uint8(0))
	f.Add(make([]byte, 8*smallCap), uint8(2), uint8(1))
	f.Add(bytes.Repeat([]byte("eleven tasks per device"), 7), uint8(3), uint8(0))
	f.Add(bytes.Repeat([]byte("\x09\x31\x8f\x42\x07\xa3\x55\xee"), 3*smallCap), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, split, geo uint8) {
		bounds := [3]float64{1e-6, 1e6, 1.05}
		if geo%2 == 1 {
			bounds = [3]float64{1, 100, 1.5}
		}
		newPair := func() (*Histogram, *refHistogram) {
			return NewHistogram(bounds[0], bounds[1], bounds[2]), newRefHistogram(bounds[0], bounds[1], bounds[2])
		}
		a, ra := newPair()
		b, rb := newPair()
		for i := 0; i+8 <= len(data); i += 8 {
			h, r := a, ra
			if split > 0 && (i/8)%int(split) == 0 {
				h, r = b, rb
			}
			v := fuzzValue(data[i : i+8])
			h.Observe(v)
			r.Observe(v)
		}
		for _, c := range []struct {
			name string
			h    *Histogram
			r    *refHistogram
		}{{"a", a, ra}, {"b", b, rb}} {
			if small := c.h.held() <= smallCap; small != (c.h.buckets == nil) {
				t.Fatalf("%s: holds %d in range, small mode %v", c.name, c.h.held(), c.h.buckets == nil)
			}
			sameAsRef(t, c.name, c.h, c.r)
			sameAsRef(t, c.name+" dense", denseCopy(c.h), c.r)
		}

		for _, c := range []struct {
			name     string
			into, of *Histogram
		}{
			{"a<-b", a, b},
			{"a<-dense b", a, denseCopy(b)},
			{"dense a<-b", denseCopy(a), b},
			{"dense a<-dense b", denseCopy(a), denseCopy(b)},
		} {
			m := cloneHistogram(c.into)
			fits := c.into.buckets == nil && c.into.held()+c.of.held() <= smallCap
			if err := m.Merge(c.of); err != nil {
				t.Fatal(err)
			}
			rm := ra.clone()
			rm.Merge(rb)
			sameAsRef(t, c.name, m, rm)
			if fits && c.of.buckets == nil && m.buckets != nil {
				t.Fatalf("%s: merge densified a result of %d that fits", c.name, m.held())
			}
		}
		for name, h := range map[string]*Histogram{"a<-a": a, "dense a<-a": denseCopy(a)} {
			m := cloneHistogram(h)
			if err := m.Merge(m); err != nil {
				t.Fatal(err)
			}
			rm := ra.clone()
			rm.Merge(rm)
			sameAsRef(t, name, m, rm)
		}

		src, dst := NewRegistry("src"), NewRegistry("dst")
		src.hists["lat"] = a
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
		if dst.hists["lat"] == a {
			t.Fatal("Registry.Merge aliased the histogram instead of cloning it")
		}
		sameAsRef(t, "registry clone", dst.hists["lat"], ra)
	})
}

// TestSmallHistogramAllocatesNothing: a latency histogram built and fed
// up to its inline capacity allocates no bucket array, nor anything else.
func TestSmallHistogramAllocatesNothing(t *testing.T) {
	var p99 float64
	allocs := testing.AllocsPerRun(100, func() {
		h := NewLatencyHistogram()
		for i := 1; i <= smallCap; i++ {
			h.Observe(float64(i))
		}
		p99 = h.Quantile(0.99)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per small histogram, want 0", allocs)
	}
	if p99 != smallCap {
		t.Fatalf("Quantile(0.99) = %v, want %v", p99, smallCap)
	}
}
