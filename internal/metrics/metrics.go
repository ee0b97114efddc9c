// Package metrics provides the measurement primitives the benchmark
// harness reports with: log-bucketed histograms with quantile queries,
// Welford mean/variance summaries, and aligned-text / CSV table rendering.
package metrics

import (
	"fmt"
	"math"
)

// Histogram records positive float64 observations in logarithmic buckets,
// trading a bounded relative error (about 5% per bucket) for O(1) inserts
// and O(buckets) quantiles.
//
// Underflow semantics: observations below the configured minimum
// (including zero and negative values) land in a dedicated underflow
// bucket. They still count toward Count, Mean, Min and Max — those are
// exact, not bucketed — but inside the underflow bucket they are
// indistinguishable for quantile queries, so Quantile answers that fall in
// the underflow region are clamped to the exact observed range
// [Min(), Max()] rather than reported at a bucket edge. +Inf lands in the
// top bucket, which absorbs everything above the configured maximum; NaN
// is not an observation and is dropped without touching any field.
//
// Storage has two modes. A histogram starts small: it keeps the bucket
// indices of its first smallCap in-range observations, sorted, inline in
// the struct, and has no bucket slice. The observation past that
// capacity allocates the dense bucket slice and replays the indices into
// it, and the histogram stays dense from then on. The mode changes how
// counts are stored, never an answer: every query reads the same buckets
// either way. A fleet gives each device its own histogram for a handful of
// tasks, so most histograms never leave small mode.
type Histogram struct {
	min     float64 // lower bound of bucket 0
	growth  float64 // bucket width factor
	logG    float64
	buckets []uint64 // dense counts; nil while the histogram is small
	small   [smallCap]int32
	n       int32  // number of buckets, the overflow bucket included
	top     int32  // one past the highest non-empty bucket; 0 when all are empty
	under   uint64 // observations <= 0 or < min
	count   uint64
	sum     float64
	max     float64 // largest observation; -Inf until the first Observe
	minSeen float64 // smallest observation; +Inf until the first Observe
}

// smallCap is how many in-range observations a histogram holds before it
// allocates its bucket slice. A fleet device runs 4 (E21 quick) to 11
// (E21 full, fleet-flash) tasks; 16 int32 indices cost 64 bytes of
// struct against the 4.5 kB slice of the latency geometry.
const smallCap = 16

// NewHistogram returns a histogram covering [min, max] with the given
// per-bucket growth factor (e.g. 1.05). It panics on nonsensical bounds:
// non-finite ones, and geometries past math.MaxInt32 buckets. It inlines,
// so a histogram that does not outlive its caller, and stays small,
// allocates nothing.
func NewHistogram(min, max, growth float64) *Histogram {
	h := newHistogram(min, max, growth)
	return &h
}

func newHistogram(min, max, growth float64) Histogram {
	n := math.Ceil(math.Log(max/min)/math.Log(growth)) + 1
	if !(min > 0 && max > min && growth > 1) || math.IsInf(max, 0) || math.IsInf(growth, 0) || !(n <= math.MaxInt32) {
		panic(fmt.Sprintf("metrics: bad histogram bounds min=%g max=%g growth=%g", min, max, growth))
	}
	return Histogram{
		min:     min,
		growth:  growth,
		logG:    math.Log(growth),
		n:       int32(n),
		max:     math.Inf(-1),
		minSeen: math.Inf(1),
	}
}

// NewLatencyHistogram covers 1 µs to 1,000,000 s, ample for any completion
// time this simulator produces.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(1e-6, 1e6, 1.05)
}

// Observe records one value. NaN is ignored.
func (h *Histogram) Observe(v float64) {
	if v != v {
		return
	}
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v < h.minSeen {
		h.minSeen = v
	}
	if v < h.min {
		h.under++
	} else {
		idx := h.n - 1
		if f := math.Log(v/h.min) / h.logG; f < float64(idx) {
			idx = int32(f)
		}
		h.add(idx, h.held())
		if idx >= h.top {
			h.top = idx + 1
		}
	}
	h.count++
}

// held returns the number of in-range observations: those in a bucket,
// not the underflow.
func (h *Histogram) held() int { return int(h.count - h.under) }

// add counts one in-range observation in bucket idx, k being the number
// the histogram held before it. A small histogram inserts idx into its
// sorted inline indices, or goes dense when they are full.
func (h *Histogram) add(idx int32, k int) {
	if h.buckets == nil {
		if k < smallCap {
			i := k
			for ; i > 0 && h.small[i-1] > idx; i-- {
				h.small[i] = h.small[i-1]
			}
			h.small[i] = idx
			return
		}
		h.densify(k)
	}
	h.buckets[idx]++
}

// densify moves a small histogram holding k in-range observations to the
// dense bucket slice.
func (h *Histogram) densify(k int) {
	h.buckets = make([]uint64, h.n)
	for _, i := range h.small[:k] {
		h.buckets[i]++
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the exact mean of all observations (not bucketed).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation, or 0 if empty. Unlike the bucketed
// quantiles it is exact, even when every observation underflowed (all
// negative observations report a negative max).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Sum returns the exact total of all observations, including underflows.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.minSeen
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) with the
// histogram's relative bucket error. The estimate is clamped to the exact
// observed range [Min(), Max()], so it can never exceed the largest
// observation (a bucket upper edge otherwise could) or undercut the
// smallest. It returns 0 for an empty histogram and panics on q outside
// [0,1]. The answer's bucket is the lowest whose cumulative count
// reaches ceil(q·Count), found walking down from the highest non-empty
// bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %g outside [0,1]", q))
	}
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
		// The quantile falls among underflowed observations; h.min is the
		// underflow bucket's upper edge, the same conservative estimate the
		// regular buckets report.
		v = h.min
	} else if i := h.bucketOf(target); i >= 0 {
		// Upper edge of the bucket: a conservative estimate.
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

// bucketOf returns the lowest bucket whose cumulative count, underflow
// included, reaches target, or -1 when none does. The caller has checked
// that the underflow bucket alone falls short. With every observation in
// the underflow or a bucket below h.top, the cumulative count at bucket
// h.top-1 is h.count, so the walk starts there and goes down: the answer
// is the first bucket below which the count drops under target. In small
// mode the sorted indices give the same bucket directly: the
// (target-under)-th smallest, or the highest when target exceeds Count.
func (h *Histogram) bucketOf(target uint64) int {
	if h.buckets == nil {
		k := h.held()
		if k == 0 {
			return -1
		}
		return int(h.small[min(target-h.under, uint64(k))-1])
	}
	seen := h.count
	for i := int(h.top) - 1; i >= 0; i-- {
		seen -= h.buckets[i]
		if seen < target {
			return i
		}
	}
	return -1
}

// Compatible reports whether o shares this histogram's bucket geometry,
// the precondition for Merge.
func (h *Histogram) Compatible(o *Histogram) bool {
	return o != nil && h.min == o.min && h.growth == o.growth && h.n == o.n
}

// Merge folds o's observations into h, as if every Observe call on o had
// been made on h instead. Bucket counts merge exactly; Sum (and therefore
// Mean) is a float64 accumulation, so merging in a different order can
// move the last few ulps — callers that need byte-stable output must merge
// in a deterministic order. o is left untouched, and may be h itself.
// A small h stays small while the merged observations fit. Merging
// histograms with different bucket geometry is an error.
func (h *Histogram) Merge(o *Histogram) error {
	if !h.Compatible(o) {
		return fmt.Errorf("metrics: merging incompatible histograms")
	}
	if o.buckets == nil {
		idx, k, hk := o.small, o.held(), h.held() // copies: o may be h
		for i, x := range idx[:k] {
			h.add(x, hk+i)
		}
	} else {
		if h.buckets == nil {
			h.densify(h.held())
		}
		for i, c := range o.buckets {
			h.buckets[i] += c
		}
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
	return nil
}

// Summary computes running mean and variance with Welford's algorithm —
// numerically stable and single pass.
type Summary struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe records one value.
func (s *Summary) Observe(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() uint64 { return s.n }

// Mean returns the running mean, or 0 if empty.
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the sample variance, or 0 with fewer than two values.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or 0 if empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 if empty.
func (s *Summary) Max() float64 { return s.max }

// Sum returns n·mean, the exact total of all observations up to rounding.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// Merge folds o's observations into s using the parallel form of
// Welford's update (Chan et al.), so independently accumulated summaries
// — one per worker, one per device — combine without shared state. The
// merged mean and variance match a single-pass accumulation up to
// floating-point rounding; merge in a deterministic order when byte-stable
// output matters. o is left untouched.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	na, nb := float64(s.n), float64(o.n)
	delta := o.mean - s.mean
	n := na + nb
	s.mean += delta * nb / n
	s.m2 += o.m2 + delta*delta*na*nb/n
	s.n += o.n
}
