package core

import (
	"fmt"

	"offload/internal/callgraph"
	"offload/internal/cloudvm"
	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/serverless"
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

	Devices    []*device.Device
	Schedulers []*sched.Scheduler

	platform *serverless.Platform
	edge     *edge.Cluster
	vm       *cloudvm.Fleet

	cfg Config
}

// NewFleet builds n devices from the configuration's device template
// (names suffixed with their index), sharing the configured remote
// substrates. Batching and off-peak shifting are per-device features and
// are not supported at fleet scope.
func NewFleet(cfg Config, n int) (*Fleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: fleet of %d devices", n)
	}
	if cfg.Batch != nil || cfg.OffPeakShift {
		return nil, fmt.Errorf("core: fleet does not support Batch or OffPeakShift")
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	src := rng.New(cfg.Seed)
	f := &Fleet{Eng: eng, Src: src, cfg: cfg}

	var pool *sched.FunctionPool
	if cfg.Serverless != nil {
		if cfg.CloudPath == nil {
			return nil, fmt.Errorf("core: serverless configured without a cloud path")
		}
		f.platform = serverless.NewPlatform(eng, src.Split(), *cfg.Serverless)
		pool = sched.NewFunctionPool(f.platform)
		pool.ArrivalRateHint = cfg.ArrivalRateHint * float64(n)
		pool.RedeployTolerance = cfg.RedeployTolerance
		pool.ProvisionedConcurrency = cfg.ProvisionedConcurrency
	}
	if cfg.Edge != nil {
		if cfg.EdgePath == nil {
			return nil, fmt.Errorf("core: edge configured without an edge path")
		}
		f.edge = edge.New(eng, *cfg.Edge)
	}
	if cfg.VM != nil {
		if cfg.CloudPath == nil {
			return nil, fmt.Errorf("core: VM configured without a cloud path")
		}
		f.vm = cloudvm.New(eng, *cfg.VM)
	}

	for i := 0; i < n; i++ {
		devCfg := cfg.Device
		devCfg.Name = fmt.Sprintf("%s-%04d", cfg.Device.Name, i)
		env := &sched.Env{
			Eng:    eng,
			Device: device.New(eng, devCfg),
		}
		if f.edge != nil {
			env.Edge = f.edge
			env.EdgePath = network.New(eng, src.Split(), *cfg.EdgePath)
		}
		if pool != nil {
			env.Functions = pool
			env.CloudPath = network.New(eng, src.Split(), *cfg.CloudPath)
		}
		if f.vm != nil {
			env.VM = f.vm
			if env.CloudPath == nil {
				env.CloudPath = network.New(eng, src.Split(), *cfg.CloudPath)
			}
		}
		policy, _, err := buildPolicy(cfg, src)
		if err != nil {
			return nil, err
		}
		var pred sched.Predictor = sched.NewPerApp(0.3)
		if cfg.PredictionNoise > 0 {
			pred = sched.NewNoisy(pred, src.Split(), cfg.PredictionNoise)
		}
		var opts []sched.Option
		if cfg.Retries > 1 {
			backoff := cfg.RetryBackoff
			if backoff <= 0 {
				backoff = 1
			}
			opts = append(opts, sched.WithRetries(sched.RetryPolicy{MaxAttempts: cfg.Retries, Backoff: backoff}))
		}
		s, err := sched.New(env, policy, pred, opts...)
		if err != nil {
			return nil, err
		}
		f.Devices = append(f.Devices, env.Device)
		f.Schedulers = append(f.Schedulers, s)
	}
	return f, nil
}

// Size returns the number of devices.
func (f *Fleet) Size() int { return len(f.Devices) }

// Platform returns the shared serverless platform, or nil.
func (f *Fleet) Platform() *serverless.Platform { return f.platform }

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
		workload.Stream(f.Eng, workload.NewPoisson(f.Src.Split(), rate), gen, tasksPerDevice, s.Submit)
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

	ByPlacement map[model.Placement]uint64
}

// Stats aggregates across the fleet. Per-device histograms merge in device
// order, so the aggregate is deterministic for a given configuration.
func (f *Fleet) Stats() FleetStats { return aggregateStats(f.Schedulers) }

// aggregateStats merges per-scheduler statistics in slice order; Fleet and
// ShardedFleet share it so serial and sharded runs aggregate identically.
func aggregateStats(scheds []*sched.Scheduler) FleetStats {
	out := FleetStats{
		ByPlacement: make(map[model.Placement]uint64),
		Completion:  metrics.NewLatencyHistogram(),
	}
	var meanSum float64
	for _, s := range scheds {
		st := s.Stats()
		out.Completed += st.Completed
		out.Failed += st.Failed
		out.Missed += st.Missed
		out.Retries += st.Retries
		out.CostUSD += st.CostUSD
		out.EnergyMilliJ += st.EnergyMilliJ
		out.FailedCostUSD += st.FailedCostUSD
		out.FailedEnergyMilliJ += st.FailedEnergyMilliJ
		if err := out.Completion.Merge(st.Completion); err != nil {
			panic(err) // all schedulers use NewLatencyHistogram; cannot happen
		}
		meanSum += st.MeanCompletion() * float64(st.Completed)
		for p, n := range st.ByPlacement {
			out.ByPlacement[p] += n
		}
	}
	if out.Completed > 0 {
		out.MeanCompletion = meanSum / float64(out.Completed)
	}
	return out
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
	t.AddRowf("completed", fmt.Sprintf("%d", s.Completed))
	t.AddRowf("failed", fmt.Sprintf("%d", s.Failed))
	t.AddRowf("mean completion (s)", s.MeanCompletion)
	t.AddRowf("miss rate", fmt.Sprintf("%.2f%%", 100*s.MissRate()))
	t.AddRowf("cost ($)", s.CostUSD)
	t.AddRowf("energy (mJ)", s.EnergyMilliJ)
	return t
}
