package exp

import (
	"cmp"
	"slices"

	"offload/internal/adapt"
	"offload/internal/cloudvm"
	"offload/internal/core"
	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/fault"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/serverless"
	"offload/internal/sim"
	"offload/internal/trace"
	"offload/internal/workload"
)

// E19 pits the online adaptive layer (internal/adapt) against every
// static placement policy across three cells whose best backend CHANGES
// mid-run. A static policy can win at most some cells; the bandit has to
// win the sum.
const (
	// e19Rate is the steady arrival rate of the outage and cold-start
	// cells; it also sets the cell horizon (tasks/rate).
	e19Rate = 0.2

	// Burst cell: a long calm phase at trickle rate teaches the bandit
	// the calm-weather optimum, then the remaining tasks arrive in a
	// flash crowd that buries the fixed-capacity backends.
	e19CalmRate  = 0.05
	e19BurstRate = 1.0

	// Objective weights: a settled task scores
	//   completion/latScale + (money + energy·price)/costScale,
	// a failed task scores e19FailScore outright. The same latency and
	// cost scales are handed to the bandit so the learner optimises the
	// objective it is judged on.
	e19LatScaleS     = 10.0
	e19CostScaleUSD  = 0.001
	e19EnergyUSDPerJ = 2.3e-5
	e19FailScore     = 2.5

	// Cold-start regime: a heavy container runtime with a short
	// keep-alive, so the platform runs mostly cold; the drift cell
	// doubles the median mid-run.
	e19ColdMedianS = 1.5
	e19KeepAliveS  = 2
)

// e19Tasks doubles the per-cell task count relative to the suite-wide
// scale: a learner needs enough rounds after each drift for its
// exploration tax to amortise, and 40 tasks split across three regimes
// would measure mostly the tax.
func e19Tasks(s Scale) int { return 2 * s.Tasks }

// e19Cell is one drift regime: a config mutation applied before the
// system is built plus a drive schedule for the arrivals (and any
// mid-run environment shift).
type e19Cell struct {
	name  string
	prep  func(cfg *core.Config, horizon float64)
	drive func(s Scale, sys *core.System, gen *workload.Generator, horizon float64)
}

// e19Config assembles the shared environment every policy faces: a
// smartphone against a deliberately small single-machine edge site
// (cheap and fast until a flash crowd buries it), one always-on VM, and
// an elastic serverless region with slow cold starts.
func e19Config(s Scale, policy core.PolicyName) core.Config {
	edgeCfg := edge.Config{
		Name:            "cell-site",
		Servers:         1,
		Cores:           2,
		CPUHz:           3 * model.GHz,
		HourlyCostUSD:   0.15,
		MemoryPerServer: 16 * model.GB,
	}
	edgePath := network.LANEdge()
	sl := serverless.LambdaLike()
	sl.ColdStart = serverless.ColdStartModel{MedianSec: e19ColdMedianS, Sigma: 0.35, PerGBExtra: 0.05}
	sl.KeepAlive = e19KeepAliveS
	cloudPath := network.WiFiCloud()
	vmCfg := cloudvm.C5Large()
	cfg := core.Config{
		Seed:            s.Seed,
		Device:          device.Smartphone(),
		Edge:            &edgeCfg,
		EdgePath:        &edgePath,
		Serverless:      &sl,
		CloudPath:       &cloudPath,
		VM:              &vmCfg,
		Policy:          policy,
		ArrivalRateHint: e19Rate,
	}
	if isAdaptivePolicy(policy) {
		acfg := adapt.DefaultConfig()
		acfg.LatencyScaleS = e19LatScaleS
		acfg.CostScaleUSD = e19CostScaleUSD
		acfg.EnergyUSDPerJ = e19EnergyUSDPerJ
		// Tighter exploration than the defaults: three cells of a few
		// hundred rounds each cannot afford a wide confidence radius.
		acfg.UCBC = 0.2
		acfg.Epsilon = 0.05
		// A jumpy drift detector and a hair-trigger breaker: the regimes
		// here shift hard (dark region, doubled cold starts, 160× rate),
		// so reacting late costs more than a false alarm.
		acfg.Drift = &adapt.DriftConfig{Lambda: 20, MinSamples: 3}
		acfg.Admission.FailureStreak = 2
		acfg.Admission.Cooldown = 45
		cfg.Adapt = &acfg
	}
	return cfg
}

// e19Cells returns the three drift regimes. Horizons are expressed in
// multiples of the cell length so quick and full scale drift at the
// same relative point.
func e19Cells() []e19Cell {
	steady := func(s Scale, sys *core.System, gen *workload.Generator, _ float64) {
		sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), e19Rate), gen, e19Tasks(s))
	}
	return []e19Cell{
		{
			// The serverless region goes dark for half the run: anything
			// committed to the cloud fails until the window clears.
			name: "outage",
			prep: func(cfg *core.Config, horizon float64) {
				cfg.Fault = &fault.Config{Outages: []fault.Window{{
					Start:    sim.Time(0.2 * horizon),
					Duration: sim.Duration(0.4 * horizon),
				}}}
			},
			drive: steady,
		},
		{
			// The container runtime regresses: median cold start doubles
			// 30% in, on a platform that runs mostly cold.
			name: "cold-2x",
			prep: func(cfg *core.Config, horizon float64) {},
			drive: func(s Scale, sys *core.System, gen *workload.Generator, horizon float64) {
				doubled := serverless.ColdStartModel{
					MedianSec: 2 * e19ColdMedianS, Sigma: 0.35, PerGBExtra: 0.05,
				}
				sys.Eng.At(sim.Time(0.3*horizon), func() {
					if err := sys.Platform().SetColdStart(doubled); err != nil {
						panic(err) // model is statically valid; cannot happen
					}
				})
				steady(s, sys, gen, horizon)
			},
		},
		{
			// A diurnal shift: 40% of tasks trickle in, then the rest
			// arrive as a flash crowd that swamps every fixed-capacity
			// backend; only the elastic region keeps its latency.
			name: "burst",
			prep: func(cfg *core.Config, horizon float64) {},
			drive: func(s Scale, sys *core.System, gen *workload.Generator, _ float64) {
				n := e19Tasks(s)
				calm := (n * 3) / 10
				burst := n - calm
				sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), e19CalmRate), gen, calm)
				arrivals := workload.NewPoisson(sys.Src.Split(), e19BurstRate)
				calmEnd := sim.Time(float64(calm) / e19CalmRate)
				sys.Eng.At(calmEnd, func() {
					sys.SubmitStream(arrivals, gen, burst)
				})
			},
		},
	}
}

// e19Score aggregates one cell's settled tasks off the lifecycle stream:
// the objective's running sum in settle order, and each task's
// submission time, ID and placement for the switch count.
type e19Score struct {
	sum   float64
	tasks []e19Decision
}

// objective scores the cell: mean per-task cost/latency blend, failures
// charged a flat penalty. Infrastructure spend is identical across
// policies within a cell (same fleet, same horizon up to drain) and is
// deliberately excluded — the objective is the marginal cost a placement
// decision controls.
func (e *e19Score) objective() float64 {
	if len(e.tasks) == 0 {
		return 0
	}
	return e.sum / float64(len(e.tasks))
}

type e19Decision struct {
	submitted float64
	id        uint64
	placement model.Placement
}

// OnEvent implements trace.Subscriber.
func (e *e19Score) OnEvent(ev trace.Event) {
	if ev.Kind != trace.KindSettle {
		return
	}
	o := &ev.Outcome
	d := e19Decision{submitted: float64(o.Started), placement: o.Placement}
	if o.Task != nil {
		d.id = uint64(o.Task.ID)
	}
	e.tasks = append(e.tasks, d)
	if o.Failed {
		e.sum += e19FailScore
		return
	}
	spend := o.CostUSD + o.EnergyMilliJ/1000*e19EnergyUSDPerJ
	e.sum += (float64(o.Finished)-float64(o.Started))/e19LatScaleS + spend/e19CostScaleUSD
}

// switches counts placement changes between consecutive tasks in
// submission order — a flap rate comparable across static and adaptive
// policies alike (failed tasks count: they were decisions too).
func (e *e19Score) switches() int {
	slices.SortStableFunc(e.tasks, func(a, b e19Decision) int {
		return cmp.Or(cmp.Compare(a.submitted, b.submitted), cmp.Compare(a.id, b.id))
	})
	switches := 0
	for i := 1; i < len(e.tasks); i++ {
		if e.tasks[i].placement != e.tasks[i-1].placement {
			switches++
		}
	}
	return switches
}

// E19Adaptive runs every placement policy — the seven static baselines
// and both bandit variants — through three regime-drift cells and
// scores them on one cost/latency objective. The claim: no static
// policy wins everywhere, so the bandit's cumulative objective beats
// every static baseline and lands within bounded regret of the
// static-best oracle (the per-cell best static, picked with hindsight).
func E19Adaptive(s Scale) ([]*metrics.Table, error) {
	mix, err := workload.Mix("report-gen")
	if err != nil {
		return nil, err
	}
	horizon := float64(e19Tasks(s)) / e19Rate
	cells := e19Cells()
	policies := core.AllPolicies()

	detail := metrics.NewTable(
		"E19: adaptive vs static placement under regime drift",
		"cell", "policy", "obj", "p95_s", "task_usd", "fail",
		"switches", "sheds", "drift", "resizes").
		Kinds(metrics.Auto, metrics.Auto, metrics.Fixed3, metrics.Seconds, metrics.USD, metrics.Percent)

	objs := make([][]float64, len(policies)) // [policy][cell]
	for i := range objs {
		objs[i] = make([]float64, len(cells))
	}
	for ci, cell := range cells {
		for pi, policy := range policies {
			cfg := e19Config(s, policy)
			cell.prep(&cfg, horizon)
			score := &e19Score{}
			res, err := runCell(s, cfg, mix, feed{
				setup: func(sys *core.System) { sys.Env.Events.Subscribe(score) },
				drive: func(sys *core.System, gen *workload.Generator) { cell.drive(s, sys, gen, horizon) },
			})
			if err != nil {
				return nil, err
			}
			obj := score.objective()
			objs[pi][ci] = obj
			st := res.stats
			sheds, drift, resizes := metrics.Missing, metrics.Missing, metrics.Missing
			if ctrl := res.system.Adapt(); ctrl != nil {
				sheds, drift, resizes = ctrl.Sheds(), ctrl.DriftResets(), ctrl.Resizes()
			}
			detail.Add(cell.name, policy, obj, st.P95Completion(), st.CostPerTask(),
				float64(st.Failed)/float64(st.Total()), score.switches(), sheds, drift, resizes)
		}
	}

	// The oracle picks the best static policy per cell with hindsight;
	// regret is each policy's excess total objective over that bound.
	// "Static" means a fixed placement rule: the stochastic random
	// baseline still competes in the tables, but a coin flip is not a
	// policy an operator could have committed to, so it cannot set the
	// oracle.
	oracle := make([]float64, len(cells))
	for ci := range cells {
		best := -1.0
		for pi, policy := range policies {
			if isAdaptivePolicy(policy) || policy == core.PolicyRandom {
				continue
			}
			if best < 0 || objs[pi][ci] < best {
				best = objs[pi][ci]
			}
		}
		oracle[ci] = best
	}
	var oracleTotal float64
	for _, v := range oracle {
		oracleTotal += v
	}

	summary := metrics.NewTable(
		"E19 summary: cumulative objective and regret vs static-best oracle",
		"policy", "outage", "cold-2x", "burst", "total", "regret").
		Kinds(metrics.Auto, metrics.Fixed3, metrics.Fixed3, metrics.Fixed3, metrics.Fixed3, metrics.Percent)
	for pi, policy := range policies {
		var total float64
		for _, v := range objs[pi] {
			total += v
		}
		summary.Add(policy, objs[pi][0], objs[pi][1], objs[pi][2], total, (total-oracleTotal)/oracleTotal)
	}
	summary.Add("oracle(static-best)", oracle[0], oracle[1], oracle[2], oracleTotal, metrics.Missing)
	return []*metrics.Table{detail, summary}, nil
}

// isAdaptivePolicy reports whether the policy carries the online
// adaptive layer (and is therefore excluded from the static oracle).
func isAdaptivePolicy(p core.PolicyName) bool {
	return p == core.PolicyBanditUCB || p == core.PolicyBanditGreedy
}
