package exp

import (
	"fmt"

	"offload/internal/core"
	"offload/internal/fault"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/sched"
	"offload/internal/sim"
	"offload/internal/workload"
)

// E20 is the disaster drill: a three-region edge–cloud continuum (edge in
// "metro", serverless in "cloud-east", an always-on VM in "cloud-west")
// hit by correlated regional incidents while four client-side postures
// face the same workload.
const (
	// e20Rate matches the resilience study (E17): dense enough that every
	// incident window covers many arrivals.
	e20Rate = 0.2

	// The single-region outage: cloud-east dark for [20, 80), then a 10 s
	// recovery ramp during which invocations still die with decaying
	// probability — the flapping phase that separates naive failback from
	// a health-tracked one.
	e20OutageStart sim.Time     = 20
	e20OutageLen   sim.Duration = 60
	e20OutageRamp  sim.Duration = 10

	// The rolling brown-out: cloud-east at 30% capacity for [20, 60),
	// then cloud-west at 30% for [60, 100) — the incident migrates, so a
	// posture that failed over east-to-west gets chased.
	e20BrownCap = 0.3

	// The partition: every region unreachable for [20, 60). Only the
	// device itself still computes.
	e20PartStart sim.Time     = 20
	e20PartLen   sim.Duration = 40
)

// e20Regions returns the region homing shared by every cell, carrying the
// scenario's fault schedules and (for postures that enable it) the
// failover layer.
func e20Regions(schedules []fault.RegionSchedule, fo *sched.Failover) *core.RegionsConfig {
	return &core.RegionsConfig{
		Edge:       "metro",
		Serverless: "cloud-east",
		VM:         "cloud-west",
		Schedules:  schedules,
		Failover:   fo,
	}
}

// e20Scenarios are the three disaster drills.
func e20Scenarios() []struct {
	name      string
	schedules []fault.RegionSchedule
} {
	return []struct {
		name      string
		schedules []fault.RegionSchedule
	}{
		{"region-outage", []fault.RegionSchedule{
			{
				Region:       "cloud-east",
				Outages:      []fault.Window{{Start: e20OutageStart, Duration: e20OutageLen}},
				RecoveryRamp: e20OutageRamp,
			},
		}},
		{"rolling-brownout", []fault.RegionSchedule{
			{
				Region:    "cloud-east",
				Brownouts: []fault.Brownout{{Window: fault.Window{Start: 20, Duration: 40}, Capacity: e20BrownCap}},
			},
			{
				Region:    "cloud-west",
				Brownouts: []fault.Brownout{{Window: fault.Window{Start: 60, Duration: 40}, Capacity: e20BrownCap}},
			},
		}},
		{"partition", []fault.RegionSchedule{
			{Region: "metro", Outages: []fault.Window{{Start: e20PartStart, Duration: e20PartLen}}},
			{Region: "cloud-east", Outages: []fault.Window{{Start: e20PartStart, Duration: e20PartLen}}},
			{Region: "cloud-west", Outages: []fault.Window{{Start: e20PartStart, Duration: e20PartLen}}},
		}},
	}
}

// e20Tag assigns priorities deterministically by task ID: every fourth
// task is sheddable background work, the next fourth is critical, the
// rest are normal — so each cell carries the same priority mix.
func e20Tag(t *model.Task) {
	switch t.ID % 4 {
	case 0:
		t.Priority = model.PriorityLow
	case 1:
		t.Priority = model.PriorityCritical
	}
}

// e20Failover returns the failover layer configuration: detect a region
// as down after 3 consecutive transient failures, canary-probe it every
// 15 s until it answers again.
func e20Failover(ladder *sched.Ladder) *sched.Failover {
	return &sched.Failover{
		FailureThreshold: 3,
		ProbeEvery:       15,
		Ladder:           ladder,
	}
}

// e20Ladder is the graceful-degradation ladder the drilled postures use:
// shed background work on detection, localize critical work 20 s in,
// queue-and-wait for everything else at 45 s.
func e20Ladder() *sched.Ladder {
	return &sched.Ladder{ShedLowAfter: 0, LocalizeAfter: 20, QueueAfter: 45}
}

// E20Failover drills four postures through three regional disasters:
//
//   - fail-fast: no retries, no failover — the task dies with its region;
//   - failover:  retries plus the health-tracked failover layer, which
//     re-homes work to a surviving region (paying the inter-region
//     state-transfer cost) and canary-probes the dead one;
//   - ladder:    failover plus the graceful-degradation ladder
//     (shed-low → localize-critical → queue-and-wait);
//   - adaptive:  ladder posture under the bandit-greedy policy, whose
//     arms reset on every region transition (internal/adapt).
//
// Expected shape: fail-fast loses roughly the fraction of tasks whose
// region was dark when they arrived; the failover postures lose none —
// the ladder converts loss into shed/queued work and degraded-mode
// seconds instead. Recovery-time accounting (MTTD from the health
// tracker's detection lag, MTTR from the canary probe cadence) prices
// each posture's visibility into the incident.
func E20Failover(s Scale) ([]*metrics.Table, error) {
	mix, err := workload.Mix("report-gen")
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(
		"E20: regional failover and graceful degradation under disaster drills",
		"scenario", "strategy", "task_fail", "p95_s", "task_usd",
		"shed", "rehomed", "lost", "degraded_s", "mttd_s", "mttr_s", "avail")

	retry := func(cfg *core.Config) {
		cfg.Retries = 5
		cfg.RetryBackoff = 2
		cfg.RetryMaxBackoff = 30
		cfg.RetryJitter = true
	}
	strategies := []struct {
		name   string
		policy core.PolicyName
		fo     *sched.Failover
		apply  func(*core.Config)
	}{
		{"fail-fast", core.PolicyCloudAll, nil, func(cfg *core.Config) {}},
		{"failover", core.PolicyCloudAll, e20Failover(nil), retry},
		{"ladder", core.PolicyCloudAll, e20Failover(e20Ladder()), retry},
		{"adaptive", core.PolicyBanditGreedy, e20Failover(e20Ladder()), retry},
	}

	for _, scen := range e20Scenarios() {
		for _, strat := range strategies {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Policy = strat.policy
			cfg.ArrivalRateHint = e20Rate
			cfg.Regions = e20Regions(scen.schedules, strat.fo)
			strat.apply(&cfg)
			res, err := runCell(s, cfg, mix, feed{rate: e20Rate, tag: e20Tag})
			if err != nil {
				return nil, err
			}
			st := res.stats
			tbl.AddRow(append([]string{
				scen.name,
				strat.name,
				pct(float64(st.Failed) / float64(st.Total())),
				seconds(st.P95Completion()),
				usd(st.CostPerTask()),
			}, e20FailoverCols(res)...)...)
		}
	}
	return []*metrics.Table{tbl}, nil
}

// e20FailoverCols renders the failover-layer columns of one cell; every
// column is "-" for postures without the layer.
func e20FailoverCols(res runResult) []string {
	sc := res.system.Scheduler
	if !sc.HasFailover() {
		return []string{"-", "-", "-", "-", "-", "-", "-"}
	}
	fs := sc.FailoverStats()
	elapsed := float64(res.system.Eng.Now())

	// MTTD/MTTR average over regions that saw detections/recoveries;
	// availability averages over every tracked region.
	var mttdSum, mttrSum, availSum float64
	var mttdN, mttrN, regions int
	for _, rs := range sc.RegionSnapshots() {
		regions++
		availSum += rs.Availability(elapsed)
		if rs.Downs > 0 {
			mttdSum += rs.MTTDSeconds
			mttdN++
		}
		if rs.Recoveries > 0 {
			mttrSum += rs.MTTRSeconds
			mttrN++
		}
	}
	mttd, mttr := "-", "-"
	if mttdN > 0 {
		mttd = seconds(mttdSum / float64(mttdN))
	}
	if mttrN > 0 {
		mttr = seconds(mttrSum / float64(mttrN))
	}
	return []string{
		fmt.Sprintf("%d", fs.Shed),
		fmt.Sprintf("%d", fs.ReHomed),
		fmt.Sprintf("%d", fs.Lost),
		seconds(sc.DegradedSeconds()),
		mttd,
		mttr,
		pct(availSum / float64(regions)),
	}
}
