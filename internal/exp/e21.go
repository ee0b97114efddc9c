package exp

import (
	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/rng"
	"offload/internal/sim"
	"offload/internal/workload"
)

// flashArrivals is a two-regime arrival process: calm Poisson traffic
// that switches to a much hotter Poisson stream inside the flash window
// [start, end). The regime is chosen by the time the previous arrival
// landed, so a calm-drawn gap can overshoot the window edge — an
// acceptable approximation for a drill, and a deterministic one: both
// regimes draw from per-UE streams, so the process is identical at every
// shard count.
type flashArrivals struct {
	calm, flash workload.Arrivals
	start, end  sim.Time
}

func (f *flashArrivals) Next(now sim.Time) sim.Duration {
	if now >= f.start && now < f.end {
		return f.flash.Next(now)
	}
	return f.calm.Next(now)
}

// E21 drill parameters: background traffic at one task per ~50 s per UE,
// then a one-minute flash where every UE submits at 2/s — the
// shared-platform stampede the sharded engine exists to simulate.
const (
	e21CalmRate   = 0.02
	e21FlashRate  = 2.0
	e21FlashStart = sim.Time(30)
	e21FlashEnd   = sim.Time(90)
)

// E21FlashCrowd is the scale drill for the sharded simulation engine
// (core.ShardedFleet): a fleet two to three orders of magnitude beyond
// E9 — a million UEs at full scale, ten-million-plus tasks — hits one
// shared serverless region with a flash crowd, partitioned across
// s.Shards worker shards. Every table cell is byte-identical at every
// shard count (per-UE rng keying, canonical barrier order), so the
// determinism gate diffs a -shards 1 run against a -shards 7 run; the
// shard count itself is deliberately absent from the table.
//
// Expected shape: the flash compresses most submissions into one
// minute. At quick scale the region absorbs the stampede and quality
// stays in E9's steady-state regime (no misses, no failures). At full
// scale the million-UE flash deliberately buries a region provisioned
// for calm traffic: the queue it builds drains over simulated days, so
// the mean completion and miss rate blow up while nothing fails — the
// drill's claim is the engine (tens of millions of events, bounded
// memory, identical bytes at every shard count), not platform
// elasticity.
func E21FlashCrowd(s Scale) ([]*metrics.Table, error) {
	// Quick: 50× the E9 fleet. Full: the headline million-UE run.
	devices, tasks := 50*s.Devices, 4
	if s.Devices >= 500 {
		devices, tasks = 1_000_000, 11
	}

	cfg := core.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Policy = core.PolicyThreshold
	cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
	cfg.ArrivalRateHint = e21CalmRate
	cfg.ShardCount = s.Shards
	fleet, err := core.NewShardedFleet(cfg, devices)
	if err != nil {
		return nil, err
	}
	err = fleet.Submit(tasks, func(src *rng.Source, _ int) workload.Arrivals {
		return &flashArrivals{
			calm:  workload.NewPoisson(src.Split(), e21CalmRate),
			flash: workload.NewPoisson(src.Split(), e21FlashRate),
			start: e21FlashStart, end: e21FlashEnd,
		}
	})
	if err != nil {
		return nil, err
	}
	fleet.Run()

	st := fleet.Stats()
	costPerTask := 0.0
	if st.Completed > 0 {
		costPerTask = st.CostUSD / float64(st.Completed)
	}
	tbl := metrics.NewTable(
		"E21: flash crowd at sharded-engine scale, one shared serverless region",
		"devices", "tasks", "events", "windows", "mean_s", "p95_s", "task_usd", "miss").
		Kinds(metrics.Auto, metrics.Auto, metrics.Auto, metrics.Auto, metrics.Seconds, metrics.Seconds, metrics.USD, metrics.Percent)
	tbl.Add(devices, st.Completed+st.Failed, fleet.Events(), fleet.SE.Windows(),
		st.MeanCompletion, st.P95Completion(), costPerTask, st.MissRate())
	return []*metrics.Table{tbl}, nil
}
