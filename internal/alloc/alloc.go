// Package alloc implements serverless resource allocation for
// non-time-critical work — the paper's central originality claim. Given a
// component's predicted demand (from internal/profile) and a completion
// budget, it chooses the function memory size that minimises expected
// dollar cost on a serverless platform, exploiting the structure of FaaS
// pricing:
//
//   - CPU grows with memory, so bigger functions finish sooner;
//   - price is memory × billed seconds, and memory pressure inflates
//     execution time when the working set barely fits, so the cost curve
//     over the memory ladder is U-shaped (pressure-inflated billed time on
//     the left, wasted memory on the right);
//   - a cold start is paid only when no container is warm, so the arrival
//     rate sets the expected cold-start share (ColdStartProbability).
package alloc

import (
	"fmt"
	"math"

	"offload/internal/model"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// Request is one allocation problem.
type Request struct {
	// Cycles is the predicted computational demand per invocation.
	Cycles float64
	// ParallelFraction is the Amdahl-parallelisable share of the work.
	ParallelFraction float64
	// MemoryFloorBytes is the working-set size; candidate memory sizes
	// below it are infeasible.
	MemoryFloorBytes int64
	// TimeBudget bounds the expected per-invocation time (cold start
	// included pro rata). Zero means unbounded — fully delay tolerant.
	TimeBudget sim.Duration
	// ColdStartProb is the expected fraction of invocations that pay a
	// cold start (see ColdStartProbability).
	ColdStartProb float64
}

// Validate reports whether the request is well formed: every field finite
// and in range.
func (r Request) Validate() error {
	switch {
	case !finite(r.Cycles), !finite(r.ParallelFraction), !finite(float64(r.TimeBudget)),
		!finite(r.ColdStartProb):
		return fmt.Errorf("alloc: non-finite request %+v", r)
	case r.Cycles < 0:
		return fmt.Errorf("alloc: negative demand")
	case r.ParallelFraction < 0 || r.ParallelFraction > 1:
		return fmt.Errorf("alloc: parallel fraction %g outside [0,1]", r.ParallelFraction)
	case r.MemoryFloorBytes < 0:
		return fmt.Errorf("alloc: negative memory floor")
	case r.TimeBudget < 0:
		return fmt.Errorf("alloc: negative time budget")
	case r.ColdStartProb < 0 || r.ColdStartProb > 1:
		return fmt.Errorf("alloc: cold-start probability %g outside [0,1]", r.ColdStartProb)
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Decision is one evaluated configuration.
type Decision struct {
	MemoryBytes     int64
	ExpectedTime    sim.Duration // expected wall time per invocation
	ExpectedCostUSD float64      // expected bill per invocation
	Feasible        bool         // meets the request's TimeBudget
}

// Allocator chooses function configurations for one platform.
type Allocator struct {
	cfg serverless.Config
	// coldMean is the mean of the lognormal cold-start delay, a constant
	// of the platform.
	coldMean float64
	// gbFull is FullShareBytes in GB, the memory that buys one vCPU.
	gbFull float64
}

// rung holds the values of one memory size that do not depend on the
// request, each computed exactly as Config.ExecTime, expectedCold and
// PriceTable.Bill compute it from the size.
type rung struct {
	mem   int64
	gb    float64      // mem in GB
	share float64      // vCPUs, Config.CPUShare(mem)
	cold  sim.Duration // mean cold start, expectedCold(mem)
}

// New returns an allocator for the given platform configuration. It panics
// if the configuration is invalid.
func New(cfg serverless.Config) *Allocator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cs := cfg.ColdStart
	// Mean of a lognormal with median m and dispersion sigma.
	return &Allocator{
		cfg:      cfg,
		coldMean: cs.MedianSec * math.Exp(cs.Sigma*cs.Sigma/2),
		gbFull:   float64(cfg.FullShareBytes) / float64(model.GB),
	}
}

// expectedCold returns the mean cold-start duration for a memory size.
func (a *Allocator) expectedCold(memBytes int64) sim.Duration {
	cs := a.cfg.ColdStart
	if cs.MedianSec == 0 {
		return 0
	}
	return sim.Duration(a.coldMean + cs.PerGBExtra*float64(memBytes)/float64(model.GB))
}

// newRung builds the record of a memory size, on the ladder or off it.
func (a *Allocator) newRung(memBytes int64) rung {
	return rung{
		mem:   memBytes,
		gb:    float64(memBytes) / float64(model.GB),
		share: a.cfg.CPUShare(memBytes),
		cold:  a.expectedCold(memBytes),
	}
}

// Evaluate computes the expected time and cost of serving the request with
// the given memory size.
func (a *Allocator) Evaluate(req Request, memBytes int64) Decision {
	r := a.newRung(memBytes)
	return a.evaluate(&req, req.Cycles/a.cfg.BaselineHz, &r)
}

// evaluate prices req at rung r, given serial = Cycles/BaselineHz, through
// the platform's own rules (serverless.RunTime and PriceTable.BillGB) on
// r's precomputed values, so every float equals what Config.ExecTime and
// PriceTable.Bill return for r's size, bit for bit.
func (a *Allocator) evaluate(req *Request, serial float64, r *rung) Decision {
	exec := serverless.RunTime(serial, req.ParallelFraction,
		a.cfg.PressureSlowdown(req.MemoryFloorBytes, r.mem), r.share)
	expTime := exec + sim.Duration(req.ColdStartProb*float64(r.cold))
	// Expected bill: cold invocations are billed for init + run.
	cost := req.ColdStartProb*a.cfg.Price.BillGB(r.gb, r.cold+exec, 1) +
		(1-req.ColdStartProb)*a.cfg.Price.BillGB(r.gb, exec, 1)
	d := Decision{
		MemoryBytes:     r.mem,
		ExpectedTime:    expTime,
		ExpectedCostUSD: cost,
		Feasible:        r.mem >= req.MemoryFloorBytes,
	}
	if req.TimeBudget > 0 && expTime > req.TimeBudget {
		d.Feasible = false
	}
	return d
}

// lowerBound returns a bound on the expected cost of serving req at rung r
// or at any larger size, given serial = Cycles/BaselineHz:
//
//	PerRequest + PerGBSecond·(serial·((1−p)·gb + p·gbFull) + pc·gb·cold(r))
//
// The warm bill gb·exec is at least serial·((1−p)·gb + p·gbFull) at every
// size, because the pressure slowdown is at least 1 and gb/share is at
// least gbFull; a bill never charges less than the run it covers. Every
// term is non-negative and non-decreasing in the size, so the bound is too.
func (a *Allocator) lowerBound(req *Request, serial float64, r *rung) float64 {
	p := req.ParallelFraction
	gbSec := serial*((1-p)*r.gb+p*a.gbFull) + req.ColdStartProb*r.gb*float64(r.cold)
	return a.cfg.Price.PerRequestUSD + a.cfg.Price.PerGBSecondUSD*gbSec
}

// Sweep evaluates the request at every ladder size, in ascending memory
// order — the raw data behind the E2 cost curve.
func (a *Allocator) Sweep(req Request) ([]Decision, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	serial := req.Cycles / a.cfg.BaselineHz
	out := make([]Decision, a.cfg.LadderLen())
	for i := range out {
		r := a.newRung(a.cfg.Rung(i))
		out[i] = a.evaluate(&req, serial, &r)
	}
	return out, nil
}

// Choose returns the cheapest feasible configuration; ties break toward
// smaller memory. If no configuration meets the time budget, it returns
// the fastest feasible-by-memory configuration with Feasible=false, so
// callers can degrade gracefully.
//
// It walks the ladder in place from the first size at or above the memory
// floor, evaluating each size exactly as Sweep does, and allocates nothing.
// It stops once lowerBound shows that no larger size can undercut the best
// feasible one; the 1e-9 margin dwarfs the bound's rounding error, so the
// result is the one the full walk returns.
func (a *Allocator) Choose(req Request) (Decision, error) {
	if err := req.Validate(); err != nil {
		return Decision{}, err
	}
	serial := req.Cycles / a.cfg.BaselineHz
	var best Decision
	haveBest := false
	var fastest Decision
	haveFastest := false
	for i, n := a.firstRung(req.MemoryFloorBytes), a.cfg.LadderLen(); i < n; i++ {
		r := a.newRung(a.cfg.Rung(i))
		if haveBest && a.lowerBound(&req, serial, &r)*(1-1e-9) > best.ExpectedCostUSD {
			break
		}
		d := a.evaluate(&req, serial, &r)
		if !haveFastest || d.ExpectedTime < fastest.ExpectedTime {
			fastest, haveFastest = d, true
		}
		if !d.Feasible {
			continue
		}
		if !haveBest || d.ExpectedCostUSD < best.ExpectedCostUSD-1e-15 {
			best, haveBest = d, true
		}
	}
	if haveBest {
		return best, nil
	}
	if haveFastest {
		return fastest, nil
	}
	return Decision{}, fmt.Errorf("alloc: working set %d bytes exceeds the platform maximum %d",
		req.MemoryFloorBytes, a.cfg.MaxMemory)
}

// firstRung returns the index of the smallest ladder size at or above
// floor; it is LadderLen or more when the floor exceeds the ladder.
func (a *Allocator) firstRung(floor int64) int {
	if floor <= a.cfg.MinMemory {
		return 0
	}
	i := int((floor - a.cfg.MinMemory) / a.cfg.MemoryStep)
	if a.cfg.Rung(i) < floor {
		i++
	}
	return i
}

// ColdStartProbability returns the probability a Poisson arrival finds no
// warm container, i.e. the previous arrival was more than keepAlive ago:
// exp(-rate·keepAlive). A zero keep-alive makes every invocation cold.
func ColdStartProbability(ratePerSec float64, keepAlive sim.Duration) float64 {
	if ratePerSec <= 0 {
		return 1
	}
	if keepAlive <= 0 {
		return 1
	}
	return math.Exp(-ratePerSec * float64(keepAlive))
}
