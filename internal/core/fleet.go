package core

import (
	"fmt"

	"offload/internal/callgraph"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sim"
	"offload/internal/workload"
)

// Fleet simulates many devices against SHARED remote infrastructure: one
// serverless region (one account concurrency limit, one function pool),
// one edge site and one VM fleet serve every device, while each device
// keeps its own radio path and scheduler. This is the configuration where
// shared-resource contention — the thing a single-device System cannot
// show — becomes visible.
type Fleet struct {
	Eng *sim.Engine
	Src *rng.Source

	fleetUEs
}

// NewFleet builds n devices from the configuration's device template
// (names suffixed with their index), sharing the configured remote
// substrates. Features that act on one device's whole stream or on the
// shared substrates (batching, off-peak shifting, resilience, regions,
// the daily budget, fault injection, DAG jobs) are rejected at fleet
// scope; see Config.check.
func NewFleet(cfg Config, n int) (*Fleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: fleet of %d devices", n)
	}
	if err := cfg.check(scopeFleet); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	src := rng.New(cfg.Seed)
	f := &Fleet{Eng: eng, Src: src, fleetUEs: newFleetUEs(&cfg, eng, n)}
	f.sub.functions(src)
	pools := new(enginePools)
	for i := 0; i < n; i++ {
		if err := f.addUE(cfg, i, eng, src, nil, pools); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// SubmitStreams gives every device its own arrival process (drawn from
// the fleet's RNG) and workload generator over the standard template mix.
func (f *Fleet) SubmitStreams(rate float64, tasksPerDevice int) error {
	mix, err := workload.Mix(callgraph.TemplateNames()...)
	if err != nil {
		return err
	}
	for _, s := range f.Schedulers {
		gen, err := workload.NewGenerator(f.Src.Split(), mix)
		if err != nil {
			return err
		}
		workload.StreamFrom(f.Eng, s.Env().Tasks, workload.NewPoisson(f.Src.Split(), rate), gen, tasksPerDevice, s.Submit)
	}
	return nil
}

// Run drives the simulation to completion.
func (f *Fleet) Run() { f.Eng.Run() }

// FleetStats aggregates every scheduler's statistics.
type FleetStats struct {
	Completed uint64
	Failed    uint64
	Missed    uint64
	Retries   uint64

	MeanCompletion float64 // completion-weighted mean across devices
	CostUSD        float64
	EnergyMilliJ   float64

	// Spend sunk into tasks that ultimately failed; CostUSD above covers
	// completed tasks only (see sched.Stats).
	FailedCostUSD      float64
	FailedEnergyMilliJ float64

	// Completion is the fleet-wide completion-time distribution, merged
	// from every device's histogram without shared state, so quantiles
	// (P95Completion) are available at fleet scope too.
	Completion *metrics.Histogram

	ByPlacement [model.NumPlacements]uint64
}

// TotalCostUSD returns per-task spend across the fleet, completed and
// failed tasks alike.
func (s FleetStats) TotalCostUSD() float64 { return s.CostUSD + s.FailedCostUSD }

// P95Completion returns the fleet-wide 95th-percentile completion time in
// seconds, from the merged per-device histograms.
func (s FleetStats) P95Completion() float64 { return s.Completion.Quantile(0.95) }

// MissRate returns the fleet-wide deadline-miss fraction.
func (s FleetStats) MissRate() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.Missed) / float64(s.Completed)
}

// Table renders the fleet aggregate for terminal output.
func (s FleetStats) Table() *metrics.Table {
	t := metrics.NewTable("fleet aggregate", "metric", "value")
	t.Add("completed", s.Completed)
	t.Add("failed", s.Failed)
	t.Add("mean completion (s)", s.MeanCompletion)
	t.Add("miss rate", fmt.Sprintf("%.2f%%", 100*s.MissRate()))
	t.Add("cost ($)", s.CostUSD)
	t.Add("energy (mJ)", s.EnergyMilliJ)
	return t
}
