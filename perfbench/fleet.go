package main

import (
	"fmt"
	"runtime"
	"time"

	"offload/internal/core"
	"offload/internal/rng"
	"offload/internal/sim"
	"offload/internal/workload"
)

// The fleet-flash input: E21's flash-crowd shape at a mid scale between
// E21's quick (2.5k UEs × 4 tasks) and full (1M UEs × 11 tasks) runs.
const (
	fleetUEs        = 10_000
	fleetTasksPerUE = 11
	fleetCalmRate   = 0.02
	fleetFlashRate  = 2.0
	fleetFlashStart = sim.Time(30)
	fleetFlashEnd   = sim.Time(90)
	fleetTotalTasks = fleetUEs * fleetTasksPerUE
)

// flashArrivals is E21's two-regime arrival process: calm Poisson traffic
// that switches to a hotter stream inside [start, end).
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

// fleetPass is one build-submit-run-summarise cycle of the flash crowd.
type fleetPass struct {
	pass
	stats           core.FleetStats
	events, windows uint64
	hubEvents       uint64
	shardEvents     []uint64
	invocations     uint64
	coldShare       float64
}

// runFleetPass builds the fleet on the given shard count, submits the
// seeded flash crowd, runs it and summarises it, checking that every task
// settled. Spans, when recorded, cover each phase.
func runFleetPass(seed uint64, shards int, sp *spanRecorder, parent uint64) (fleetPass, error) {
	var p fleetPass
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Policy = core.PolicyThreshold
	cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
	cfg.ArrivalRateHint = fleetCalmRate
	cfg.ShardCount = shards

	runtime.GC() // start every pass from the same heap state, untimed
	id := sp.begin("setup", parent)
	t0 := time.Now()
	fleet, err := core.NewShardedFleet(cfg, fleetUEs)
	if err != nil {
		sp.end(id)
		return p, err
	}
	sub := sp.begin("submit", id)
	err = fleet.Submit(fleetTasksPerUE, func(src *rng.Source, _ int) workload.Arrivals {
		return &flashArrivals{
			calm:  workload.NewPoisson(src.Split(), fleetCalmRate),
			flash: workload.NewPoisson(src.Split(), fleetFlashRate),
			start: fleetFlashStart, end: fleetFlashEnd,
		}
	})
	sp.end(sub)
	p.setup = time.Since(t0)
	sp.end(id)
	if err != nil {
		return p, err
	}

	before := totalAlloc()
	sp.do("run", parent, func(uint64) {
		t0 = time.Now()
		fleet.Run()
		p.run = time.Since(t0)
	})
	p.allocBytes = totalAlloc() - before

	sp.do("summarise", parent, func(uint64) { p.stats = fleet.Stats() })
	p.events = fleet.Events()
	p.windows = fleet.SE.Windows()
	p.hubEvents = fleet.SE.Hub().Fired()
	for i := 0; i < fleet.SE.NumShards(); i++ {
		p.shardEvents = append(p.shardEvents, fleet.SE.Shard(i).Fired())
	}
	if pl := fleet.Platform(); pl != nil {
		p.invocations = pl.Stats().Invocations
		p.coldShare = pl.ColdStartFraction()
	}
	st := p.stats
	p.fingerprint = fmt.Sprintf("%d/%d/%d/%x/%x/%x/%d/%d/%d", st.Completed, st.Failed, st.Missed,
		st.CostUSD, st.MeanCompletion, st.P95Completion(), p.events, p.windows, p.invocations)
	return p, checkConservation(st.Completed, st.Failed, fleetTotalTasks)
}

// fleetFlash is the fleet-flash workload: repeated passes of the seeded
// flash crowd on nproc shards for the run's duration.
func fleetFlash(e *env, sp *spanRecorder) outcome {
	return runPasses(e, sp, fleetTotalTasks, func(parent uint64) (pass, error) {
		p, err := runFleetPass(e.seed, e.nproc, sp, parent)
		return p.pass, err
	})
}
