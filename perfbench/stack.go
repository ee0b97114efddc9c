package main

import (
	"fmt"
	"runtime"
	"time"

	"offload/internal/adapt"
	"offload/internal/core"
	"offload/internal/fault"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/sim"
	"offload/internal/trace"
	"offload/internal/workload"
)

// The stack-deadline input: a Poisson stream of the five-template standard
// mix into one fully layered core.System.
const (
	stackTasks     = 30_000
	stackRate      = 0.2 // arrivals per simulated second
	stackSpanBound = 20_000
	stackObserveS  = 60
)

// The layer ladder, cheapest first. Each rung adds one layer to the stack
// below it; the last rung is the full stack-deadline configuration.
var ladderLayers = []string{
	"sim.engine",       // the event engine and the workload generator alone
	"sched",            // a core.System with the scheduler and cloud-all
	"sched.policy",     // the deadline-aware policy instead of cloud-all
	"sched.retry",      // retries with jitter, Gilbert–Elliott faults and stragglers
	"sched.resilience", // attempt timeouts, hedging and circuit breakers
	"sched.failover",   // regions, a mid-run serverless outage and the failover ladder
	"adapt",            // the adaptive wrap: tuner, drift detection, admission
	"trace",            // bounded causal spans
	"core.observer",    // the sim-time observer
}

// stackConfig returns the configuration of ladder rung level (1 .. the
// last rung) for a stream of count tasks. Rung 0, the bare engine, has no
// System; see engineOnly.
func stackConfig(seed uint64, level, count int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.ArrivalRateHint = stackRate
	cfg.Policy = core.PolicyCloudAll
	if level >= 2 {
		cfg.Policy = core.PolicyDeadlineAware
	}
	if level >= 3 {
		cfg.Retries = 4
		cfg.RetryBackoff = 2
		cfg.RetryMaxBackoff = 30
		cfg.RetryJitter = true
		cfg.Fault = &fault.Config{
			FailureRate:   0.01,
			GoodToBadRate: 1.0 / 900, BadToGoodRate: 1.0 / 60, BadFailRate: 0.5,
			StragglerProb: 0.05, StragglerFactor: 4, StragglerAlpha: 1.5,
		}
	}
	if level >= 4 {
		cfg.Resilience = &sched.Resilience{
			AttemptTimeout: 600,
			HedgeDelay:     60, HedgeQuantile: 0.99, MaxHedges: 1,
			Breaker: &sched.BreakerConfig{FailureThreshold: 5, OpenFor: 20, HalfOpenSuccesses: 1},
		}
	}
	if level >= 5 {
		// The edge region, where the policy sends most work, goes dark for
		// a tenth of the stream 40% of the way through, then heals over a
		// minute: the failover ladder moves work onto the faulty
		// serverless platform and the VM meanwhile.
		span := float64(count) / stackRate
		cfg.Regions = &core.RegionsConfig{
			Edge: "metro", Serverless: "cloud-east", VM: "cloud-west",
			Schedules: []fault.RegionSchedule{{
				Region:       "metro",
				Outages:      []fault.Window{{Start: sim.Time(0.4 * span), Duration: sim.Duration(0.1 * span)}},
				RecoveryRamp: 60,
			}},
			Failover: &sched.Failover{
				FailureThreshold: 3,
				ProbeEvery:       15,
				Ladder:           &sched.Ladder{ShedLowAfter: 0, LocalizeAfter: 20, QueueAfter: 45},
			},
		}
	}
	if level >= 6 {
		ac := adapt.DefaultConfig()
		cfg.Adapt = &ac
	}
	return cfg
}

// buildStack assembles rung level of the ladder (level >= 1) and submits
// the seeded stream; Run is left to the caller.
func buildStack(seed uint64, level, count int) (*core.System, error) {
	sys, err := core.NewSystem(stackConfig(seed, level, count))
	if err != nil {
		return nil, err
	}
	if level >= 7 {
		sys.EnableSpans().Bound(stackSpanBound)
	}
	if level >= 8 {
		sys.Observe("stack", stackObserveS)
	}
	gen, err := workload.StandardMix(sys.Src.Split())
	if err != nil {
		return nil, err
	}
	sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), stackRate), gen, count)
	return sys, nil
}

// engineOnly runs rung 0: the same arrival stream and task generator on a
// bare engine, with a submit that only counts. It returns the count.
func engineOnly(seed uint64, count int) (int, error) {
	eng := sim.NewEngine()
	src := rng.New(seed)
	gen, err := workload.StandardMix(src.Split())
	if err != nil {
		return 0, err
	}
	n := 0
	workload.Stream(eng, workload.NewPoisson(src.Split(), stackRate), gen, count, func(*model.Task) { n++ })
	eng.Run()
	return n, nil
}

// stackPass is one build-submit-run-summarise cycle of the full stack.
type stackPass struct {
	pass
	stats       sched.Stats
	spans       *trace.SpanSet
	invocations uint64
	coldShare   float64
}

// runStackPass runs the full stack-deadline configuration once and checks
// that every submitted task settled and none is left in flight.
func runStackPass(seed uint64, count int, sp *spanRecorder, parent uint64) (stackPass, error) {
	var p stackPass
	top := len(ladderLayers) - 1
	runtime.GC() // start every pass from the same heap state, untimed
	id := sp.begin("setup", parent)
	t0 := time.Now()
	sys, err := buildStack(seed, top, count)
	p.setup = time.Since(t0)
	sp.end(id)
	if err != nil {
		return p, err
	}
	before := totalAlloc()
	sp.do("run", parent, func(uint64) {
		t0 = time.Now()
		sys.Run()
		p.run = time.Since(t0)
	})
	p.allocBytes = totalAlloc() - before

	var rep core.Report
	sp.do("summarise", parent, func(uint64) { rep = sys.Report() })
	p.stats = *sys.Stats()
	p.spans = sys.SpanSet()
	if pl := sys.Platform(); pl != nil {
		p.invocations = pl.Stats().Invocations
		p.coldShare = pl.ColdStartFraction()
	}
	st := p.stats
	p.fingerprint = fmt.Sprintf("%d/%d/%d/%d/%d/%d/%d/%x/%x/%x/%d", st.Completed, st.Failed, st.Missed,
		st.Retries, st.Timeouts, st.Hedges, st.HedgeWins, st.CostUSD, rep.P95CompletionS,
		rep.InfraCostUSD, sys.Eng.Fired())
	if err := checkConservation(st.Completed, st.Failed, uint64(count)); err != nil {
		return p, err
	}
	if n := sys.Scheduler.InFlight(); n != 0 {
		return p, fmt.Errorf("stack-deadline: %d tasks still in flight after Run", n)
	}
	return p, nil
}

// stackDeadline is the stack-deadline workload: repeated passes of the
// fully layered stack over one seeded stream for the run's duration.
func stackDeadline(e *env, sp *spanRecorder) outcome {
	return runPasses(e, sp, stackTasks, func(parent uint64) (pass, error) {
		p, err := runStackPass(e.seed, stackTasks, sp, parent)
		return p.pass, err
	})
}
