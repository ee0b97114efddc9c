package core

import (
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/sim"
)

// observeColumns is the fixed column set every observer samples. Substrates
// absent from the configuration report zero, so every export has the same
// shape and a reader never has to sniff headers. Systems with the
// failover layer on append two extra columns (healthy_regions,
// degradation_mode) — conditionally, so exports from every pre-existing
// configuration keep their exact historical shape.
var observeColumns = []string{
	"tasks_completed",
	"tasks_failed",
	"sched_inflight",
	"sched_open_breakers",
	"sched_breaker_opens",
	"sl_running_slots",
	"sl_queued",
	"sl_warm_containers",
	"sl_cold_start_frac",
	"edge_busy_cores",
	"edge_queue",
	"vm_instances",
	"vm_busy_cores",
	"vm_queue",
	"dev_cpu_util",
	"dev_backlog",
	"dev_battery_j",
}

// Observer samples a live System at a fixed simulated-time interval into a
// metrics.TimeSeries: queue depths, warm-pool size, breaker state,
// cold-start fraction, utilization. Sampling is not an engine event — the
// run loop interleaves it between events — so attaching an observer never
// changes simulation results: no extra events fire, the clock never
// advances past the last real event, and no randomness is drawn. It only
// records.
type Observer struct {
	sys    *System
	every  sim.Duration
	next   sim.Time
	series *metrics.TimeSeries
}

// Observe attaches an observer that samples every interval of simulated
// time, starting one interval in. Call before System.Run; a System carries
// at most one observer.
func (s *System) Observe(name string, every sim.Duration) *Observer {
	if every <= 0 {
		panic("core: observe interval must be positive")
	}
	if s.observer != nil {
		panic("core: system already has an observer")
	}
	cols := observeColumns
	if s.Scheduler.HasFailover() {
		cols = append(append([]string(nil), cols...), "healthy_regions", "degradation_mode")
	}
	o := &Observer{
		sys:    s,
		every:  every,
		next:   sim.Time(0).Add(every),
		series: metrics.NewTimeSeries(name, cols...),
	}
	s.observer = o
	return o
}

// Series returns the samples collected so far.
func (o *Observer) Series() *metrics.TimeSeries { return o.series }

// drive runs the engine to completion, recording a sample whenever the
// clock crosses a sampling point with work still pending. Events fire in
// exactly the order Engine.Run would fire them; sampling stops the moment
// the queue drains, so the run ends at the same virtual time observed or
// not.
func (o *Observer) drive() {
	eng := o.sys.Eng
	for eng.Pending() > 0 {
		if eng.NextEventTime() <= o.next {
			eng.Step()
			continue
		}
		// The next sampling point falls strictly between events: advance
		// the clock to it (firing nothing) and record.
		eng.RunUntil(o.next)
		o.sample()
		o.next = o.next.Add(o.every)
	}
}

func (o *Observer) sample() {
	s := o.sys
	st := s.Stats()
	vals := make([]float64, 0, len(observeColumns))
	vals = append(vals,
		float64(st.Completed),
		float64(st.Failed),
		float64(s.Scheduler.InFlight()),
		float64(s.Scheduler.OpenBreakers()),
		float64(s.Scheduler.BreakerOpens()),
	)
	if p := s.Platform(); p != nil {
		vals = append(vals,
			float64(p.RunningSlots()),
			float64(p.QueuedInvocations()),
			float64(p.WarmContainers()),
			p.ColdStartFraction(),
		)
	} else {
		vals = append(vals, 0, 0, 0, 0)
	}
	if s.Env.Edge != nil {
		vals = append(vals,
			float64(s.Env.Edge.BusyCores()),
			float64(s.Env.Edge.QueueLen()),
		)
	} else {
		vals = append(vals, 0, 0)
	}
	if s.Env.VM != nil {
		vals = append(vals,
			float64(s.Env.VM.Instances()),
			float64(s.Env.VM.BusyCores()),
			float64(s.Env.VM.QueueLen()),
		)
	} else {
		vals = append(vals, 0, 0, 0)
	}
	vals = append(vals,
		s.Env.Device.CPUUtilization(),
		float64(s.Env.Device.Backlog()),
		s.Env.Device.BatteryRemainingJ(),
	)
	if s.Scheduler.HasFailover() {
		healthy, _ := s.Scheduler.HealthyRegions()
		vals = append(vals,
			float64(healthy),
			float64(s.Scheduler.DegradationMode()),
		)
	}
	o.series.Record(float64(s.Eng.Now()), vals...)
}

// Registry aggregates the system's end-of-run counters, peaks and the
// completion-time distribution into a named metrics.Registry: the flat,
// mergeable snapshot cmd/offbench exports. Call after System.Run.
func (s *System) Registry(name string) *metrics.Registry {
	reg := metrics.NewRegistry(name)
	st := s.Stats()

	reg.Counter("tasks", metrics.L("state", "completed")).Add(float64(st.Completed))
	reg.Counter("tasks", metrics.L("state", "failed")).Add(float64(st.Failed))
	reg.Counter("tasks", metrics.L("state", "missed_deadline")).Add(float64(st.Missed))
	reg.Counter("sched_retries").Add(float64(st.Retries))
	reg.Counter("sched_timeouts").Add(float64(st.Timeouts))
	reg.Counter("sched_hedges").Add(float64(st.Hedges))
	reg.Counter("sched_hedge_wins").Add(float64(st.HedgeWins))
	reg.Counter("sched_fallbacks").Add(float64(st.Fallbacks))
	reg.Counter("sched_breaker_opens").Add(float64(s.Scheduler.BreakerOpens()))

	reg.Counter("cost_usd", metrics.L("state", "completed")).Add(st.CostUSD)
	reg.Counter("cost_usd", metrics.L("state", "failed")).Add(st.FailedCostUSD)
	reg.Counter("cost_usd", metrics.L("state", "infra")).Add(s.InfrastructureCostUSD())
	reg.Counter("energy_mj", metrics.L("state", "completed")).Add(st.EnergyMilliJ)
	reg.Counter("energy_mj", metrics.L("state", "failed")).Add(st.FailedEnergyMilliJ)

	for p, n := range st.ByPlacement {
		if n > 0 {
			reg.Counter("tasks_by_placement", metrics.L("placement", model.Placement(p).String())).Add(float64(n))
		}
	}

	if p := s.Platform(); p != nil {
		ps := p.Stats()
		reg.Counter("sl_invocations").Add(float64(ps.Invocations))
		reg.Counter("sl_cold_starts").Add(float64(ps.ColdStarts))
		reg.Counter("sl_warm_starts").Add(float64(ps.WarmStarts))
		reg.Counter("sl_errors").Add(float64(ps.Errors))
		reg.Counter("sl_billed_usd").Add(ps.BilledUSD)
		reg.Gauge("sl_warm_containers").Set(float64(p.WarmContainers()))
	}
	if s.Env.Edge != nil {
		reg.Counter("edge_executed").Add(float64(s.Env.Edge.Executed()))
		reg.Counter("edge_rejected").Add(float64(s.Env.Edge.Rejected()))
		reg.Counter("edge_faulted").Add(float64(s.Env.Edge.Faulted()))
		reg.Gauge("edge_utilization").Set(s.Env.Edge.Utilization())
	}
	if s.Env.VM != nil {
		reg.Counter("vm_executed").Add(float64(s.Env.VM.Executed()))
		reg.Counter("vm_faulted").Add(float64(s.Env.VM.Faulted()))
		reg.Gauge("vm_instances").Set(float64(s.Env.VM.Instances()))
	}
	reg.Counter("dev_executed").Add(float64(s.Env.Device.Executed()))
	reg.Counter("dev_drained_j").Add(s.Env.Device.DrainedJ())

	// Adaptive-layer state (decisions by arm, switches, drift resets,
	// sheds, resizes) appears only when the layer is on, so registries of
	// non-adaptive configurations keep their exact historical shape.
	if s.adapt != nil {
		s.adapt.FillRegistry(reg)
	}

	// Failover-layer state likewise appears only when the layer is on.
	if s.Scheduler.HasFailover() {
		fs := s.Scheduler.FailoverStats()
		reg.Counter("failover_shed").Add(float64(fs.Shed))
		reg.Counter("failover_queued").Add(float64(fs.Queued))
		reg.Counter("failover_rehomed").Add(float64(fs.ReHomed))
		reg.Counter("failover_localized").Add(float64(fs.Localized))
		reg.Counter("failover_lost").Add(float64(fs.Lost))
		reg.Counter("failover_probes").Add(float64(fs.Probes))
		reg.Counter("failover_transfer_usd").Add(fs.StateTransferUSD)
		reg.Counter("degraded_seconds").Add(s.Scheduler.DegradedSeconds())
		reg.Gauge("degradation_mode").Set(float64(s.Scheduler.DegradationMode()))
		for _, rs := range s.Scheduler.RegionSnapshots() {
			l := metrics.L("region", rs.Name)
			health := 1.0
			if rs.Down {
				health = 0
			}
			reg.Gauge("region_health", l).Set(health)
			reg.Counter("region_downs", l).Add(float64(rs.Downs))
			reg.Counter("region_down_seconds", l).Add(rs.DownSeconds)
			reg.Counter("region_mttd_s", l).Add(rs.MTTDSeconds)
			reg.Counter("region_mttr_s", l).Add(rs.MTTRSeconds)
		}
	}

	// The completion-time distribution merges observation-wise, so
	// registries from independent cells still answer quantile queries.
	if err := reg.LatencyHistogram("completion_s").Merge(st.Completion); err != nil {
		panic(err) // geometry is fixed by NewLatencyHistogram; cannot happen
	}
	return reg
}
