package exp

import (
	"offload/internal/core"
	"offload/internal/fault"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/sim"
	"offload/internal/trace"
	"offload/internal/workload"
)

// e17Rate is the arrival rate for the resilience study. It is an order of
// magnitude denser than e1Rate so that even the shortest outage burst
// covers several arrivals and the failure statistics resolve the bursts.
const e17Rate = 0.2

// e17OutageStart leaves a short healthy warm-up before the burst begins.
const e17OutageStart sim.Time = 20

// E17Resilience studies correlated cloud outages — the robustness case
// i.i.d. failure injection (E12) cannot express. A scheduled outage of
// varying length hits the serverless region while the cloud-all policy
// keeps submitting; four client-side strategies face it:
//
//   - fail-fast:    no retries — every invocation lost to the outage fails;
//   - retry-only:   exponential backoff with full jitter (≈62 s horizon);
//   - brk+fallback: retries plus a circuit breaker that reroutes to local
//     execution while open, re-probing the cloud every cooldown;
//   - hedged:       retries plus per-attempt timeouts and a duplicate
//     attempt once the primary looks slow (a straggler-tail hedge).
//
// A light straggler model (5% of invocations 4× slower, Pareto tail) runs
// alongside the outage so the hedged strategy has a tail to cut.
//
// Expected shape: fail-fast loses roughly the fraction of tasks that
// arrive inside the burst. Retry-only absorbs bursts shorter than its
// backoff horizon but degrades sharply at 240 s. Breaker+fallback keeps
// the failure rate at zero for every burst length by buying local
// completions (visible as fallbacks and higher energy), and recovers
// within one cooldown of the outage clearing. Hedging pays a small cost
// premium (wasted duplicates) for a tighter tail. Failed attempts are
// billed by the platform, so resilience shows up as money too.
func E17Resilience(s Scale) ([]*metrics.Table, error) {
	mix, err := workload.Mix("report-gen")
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(
		"E17: resilience strategies under correlated cloud outages",
		"burst_s", "strategy", "task_fail", "p95_s", "task_usd",
		"task_mJ", "fallbacks", "hedges", "recovery_s").
		Kinds(metrics.Auto, metrics.Auto, metrics.Percent, metrics.Seconds, metrics.USD,
			metrics.MilliJ, metrics.Auto, metrics.Auto, metrics.Seconds)

	retry := func(cfg *core.Config) {
		cfg.Retries = 6
		cfg.RetryBackoff = 2
		cfg.RetryMaxBackoff = 60
		cfg.RetryJitter = true
	}
	strategies := []struct {
		name  string
		apply func(*core.Config)
	}{
		{"fail-fast", func(cfg *core.Config) {}},
		{"retry-only", retry},
		{"brk+fallback", func(cfg *core.Config) {
			retry(cfg)
			cfg.Resilience = &sched.Resilience{
				Breaker: &sched.BreakerConfig{FailureThreshold: 5, OpenFor: 20, HalfOpenSuccesses: 1},
			}
		}},
		{"hedged", func(cfg *core.Config) {
			retry(cfg)
			cfg.Resilience = &sched.Resilience{
				AttemptTimeout: 120,
				HedgeDelay:     20, HedgeQuantile: 0.95, MaxHedges: 1,
			}
		}},
	}

	for _, burst := range []sim.Duration{15, 60, 240} {
		for _, strat := range strategies {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Policy = core.PolicyCloudAll
			cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
			sl := serverless.LambdaLike()
			cfg.Serverless = &sl
			cfg.ArrivalRateHint = e17Rate
			cfg.Fault = &fault.Config{
				Outages:       []fault.Window{{Start: e17OutageStart, Duration: burst}},
				StragglerProb: 0.05, StragglerFactor: 4, StragglerAlpha: 1.5,
			}
			strat.apply(&cfg)
			// The recovery lag: how long after the outage cleared the cloud
			// path carried its first successful completion again — the lag
			// a breaker's probing cadence adds. Negative until one does;
			// "-" if the run ended first (e.g. the burst outlived the
			// workload at quick scale).
			outEnd, lag := float64(e17OutageStart.Add(burst)), -1.0
			res, err := runCell(s, cfg, mix, feed{rate: e17Rate, setup: func(sys *core.System) {
				sys.Env.Events.Subscribe(trace.SubscriberFunc(func(ev trace.Event) {
					o := &ev.Outcome
					if ev.Kind != trace.KindSettle || o.Failed || o.Placement != model.PlaceFunction || float64(o.Finished) < outEnd {
						return
					}
					if l := float64(o.Finished) - outEnd; lag < 0 || l < lag {
						lag = l
					}
				}))
			}})
			if err != nil {
				return nil, err
			}
			st := res.stats
			recovery := metrics.Missing
			if lag >= 0 {
				recovery = lag
			}
			tbl.Add(float64(burst), strat.name, float64(st.Failed)/float64(st.Total()), st.P95Completion(),
				st.CostPerTask(), st.EnergyPerTaskMilliJ(), st.Fallbacks, st.Hedges, recovery)
		}
	}
	return []*metrics.Table{tbl}, nil
}
