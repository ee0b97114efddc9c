package sched

import (
	"offload/internal/metrics"
	"offload/internal/model"
)

// Stats aggregates outcomes for one scheduler run: completion-time
// distribution, money, energy, deadline misses and a per-placement
// breakdown. The benchmark harness reads these to print its tables.
type Stats struct {
	Completion *metrics.Histogram
	Uplink     metrics.Summary
	Downlink   metrics.Summary

	Completed uint64
	Failed    uint64
	Missed    uint64 // completed but past deadline
	Retries   uint64 // re-dispatches after transient failures
	Timeouts  uint64 // attempts abandoned by the per-attempt timeout
	Hedges    uint64 // duplicate attempts launched by hedging
	HedgeWins uint64 // hedge attempts that finished first
	Fallbacks uint64 // attempts rerouted while a breaker was open

	CostUSD      float64 // spend attributed to completed tasks
	EnergyMilliJ float64 // device energy attributed to completed tasks

	// Failed tasks still burn money and battery: every attempt the platform
	// billed before the task was abandoned (sunk retries, timed-out
	// attempts, the final failing attempt) lands here instead of vanishing.
	// CostUSD + FailedCostUSD equals what the platforms actually billed.
	FailedCostUSD      float64
	FailedEnergyMilliJ float64

	// ByPlacement counts completed tasks by where they ran.
	ByPlacement [model.NumPlacements]uint64
}

func (s *Stats) init() {
	s.Completion = metrics.NewLatencyHistogram()
}

func (s *Stats) record(o model.Outcome) {
	if o.Failed {
		s.Failed++
		s.FailedCostUSD += o.CostUSD
		s.FailedEnergyMilliJ += o.EnergyMilliJ
		return
	}
	s.Completed++
	s.Completion.Observe(float64(o.CompletionTime()))
	s.Uplink.Observe(float64(o.UplinkTime))
	s.Downlink.Observe(float64(o.DownlinkTime))
	s.CostUSD += o.CostUSD
	s.EnergyMilliJ += o.EnergyMilliJ
	s.ByPlacement[o.Placement]++
	if o.MissedDeadline() {
		s.Missed++
	}
}

// Total returns completed + failed task count.
func (s *Stats) Total() uint64 { return s.Completed + s.Failed }

// MissRate returns the fraction of completed tasks that missed their
// deadline, or 0 if nothing completed.
func (s *Stats) MissRate() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.Missed) / float64(s.Completed)
}

// MeanCompletion returns the mean completion time in seconds.
func (s *Stats) MeanCompletion() float64 { return s.Completion.Mean() }

// P95Completion returns the 95th-percentile completion time in seconds.
func (s *Stats) P95Completion() float64 { return s.Completion.Quantile(0.95) }

// TotalCostUSD returns all money spent, whether the task completed or
// not. This matches the platforms' billing, which charges per attempt.
func (s *Stats) TotalCostUSD() float64 { return s.CostUSD + s.FailedCostUSD }

// TotalEnergyMilliJ returns all device energy drained, whether the task
// completed or not.
func (s *Stats) TotalEnergyMilliJ() float64 { return s.EnergyMilliJ + s.FailedEnergyMilliJ }

// CostPerTask returns mean dollars per completed task, or 0 if none
// completed. The numerator includes money sunk into failed tasks — the
// real price of a successful result under failures, matching platform
// billing rather than understating it.
func (s *Stats) CostPerTask() float64 {
	if s.Completed == 0 {
		return 0
	}
	return s.TotalCostUSD() / float64(s.Completed)
}

// EnergyPerTaskMilliJ returns mean device energy per completed task,
// including energy drained by failed tasks (see CostPerTask).
func (s *Stats) EnergyPerTaskMilliJ() float64 {
	if s.Completed == 0 {
		return 0
	}
	return s.TotalEnergyMilliJ() / float64(s.Completed)
}
