package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, the estimator numpy and R call
// type 7. xs need not be sorted; it is not modified. An empty input gives
// NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerCost is one rung of the layer ladder: the cumulative per-task cost
// of a stack that includes every layer up to and including this one.
type layerCost struct {
	Layer  string
	NS     float64 // host nanoseconds per task
	Allocs float64 // heap allocations per task
	Bytes  float64 // heap bytes per task
}

// marginal turns cumulative ladder costs into the cost each layer adds:
// the first rung is reported as measured (it is the base the others build
// on), and every later rung minus the one before it. A negative marginal
// is kept: it means the layer removed work (or the difference is noise)
// and hiding it would overstate the others.
func marginal(cum []layerCost) []layerCost {
	out := make([]layerCost, len(cum))
	for i, c := range cum {
		if i == 0 {
			out[i] = c
			continue
		}
		p := cum[i-1]
		out[i] = layerCost{Layer: c.Layer, NS: c.NS - p.NS, Allocs: c.Allocs - p.Allocs, Bytes: c.Bytes - p.Bytes}
	}
	return out
}

// rateStep is the outcome of offering one constant rate to the daemon.
type rateStep struct {
	Offered  float64 // requests per second scheduled
	Achieved float64 // 2xx responses per second of the step's span
	P90MS    float64 // 90th percentile due-time latency
	Refused  int     // non-2xx responses and transport errors
}

// maxRPSLimitMS is the latency limit a rate must meet to count as
// sustained: the due-time p90 of every request in the step.
const maxRPSLimitMS = 5.0

// achievedShare is how close the achieved rate must come to the offered
// one. A step's span runs from the first due time to the last response, so
// even a daemon that keeps up reads a little under the offered rate.
const achievedShare = 0.97

// passes reports whether a step counts as sustained: the daemon kept up
// with the offered rate, refused nothing, and met the latency limit.
func (s rateStep) passes() bool {
	return s.Refused == 0 && s.Achieved >= achievedShare*s.Offered && s.P90MS <= maxRPSLimitMS
}

// climbRates offers rates from start upward, each factor times the one
// before, until two steps in a row fail or the next rate would pass top,
// and returns every step probed, in order. One failing step does not end
// the climb: a lone latency spike at a rate the daemon sustains would
// otherwise decide the answer.
func climbRates(start, factor, top float64, probe func(rate float64) rateStep) []rateStep {
	var steps []rateStep
	failed := 0
	for rate := start; rate <= top && failed < 2; rate *= factor {
		st := probe(rate)
		steps = append(steps, st)
		if st.passes() {
			failed = 0
		} else {
			failed++
		}
	}
	return steps
}

// maxRPS estimates the highest sustained rate from steps offered at
// rising rates: the highest passing step, moved toward the step above it
// when that one broke the latency limit without refusing anything. The
// limit was then crossed between the two, and the crossing is
// interpolated linearly in log rate against log p90: near saturation p90
// climbs steeply, so the interpolated rate moves far less from run to run
// than which step happened to pass. (A step that fell behind the offered
// rate has a growing backlog, so its p90 is over the limit too.) It
// reports false when no step passed.
func maxRPS(steps []rateStep) (float64, bool) {
	best := -1
	for i, st := range steps {
		if st.passes() {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	lo := steps[best]
	if best == len(steps)-1 {
		return lo.Offered, true
	}
	hi := steps[best+1]
	if hi.Refused > 0 || hi.P90MS <= maxRPSLimitMS || lo.P90MS <= 0 {
		return lo.Offered, true
	}
	t := math.Log(maxRPSLimitMS/lo.P90MS) / math.Log(hi.P90MS/lo.P90MS)
	return lo.Offered * math.Pow(hi.Offered/lo.Offered, t), true
}

// checkConservation verifies a batch run settled exactly the tasks it was
// given: every task either completed or failed, none lost or invented.
func checkConservation(completed, failed, want uint64) error {
	if completed+failed != want {
		return fmt.Errorf("conservation: completed %d + failed %d = %d, want %d",
			completed, failed, completed+failed, want)
	}
	return nil
}
