package core

import (
	"runtime"
	"testing"

	"offload/internal/adapt"
	"offload/internal/fault"
	"offload/internal/sched"
	"offload/internal/sim"
	"offload/internal/workload"
)

// The stack-deadline configuration: the deadline-aware policy with every
// optional layer on (retries with jitter over a faulty serverless
// platform, resilience, regions with a mid-stream edge outage and the
// failover ladder, the adaptive wrap, bounded spans and an observer), fed
// a Poisson stream of the standard task mix.
//
// This is a twin of the last rung of stackConfig in perfbench/stack.go,
// which the stack-deadline workload and its layer ladder build: the
// perfbench module cannot be imported from here, so the two copies must
// change together or the benchmark measures a different stack from the
// one the ladder reports.
const (
	stackRate      = 0.2 // arrivals per simulated second
	stackSpanBound = 20_000
	stackObserveS  = 60
	stackBenchSeed = 7
	// stackBenchStream is how many tasks one System runs in the benchmark:
	// the layer ladder's stream length, so the per-task figures match its
	// full-stack row.
	stackBenchStream = 20_000
)

// stackConfig returns the stack-deadline configuration for a stream of
// count tasks; the edge outage covers a tenth of the stream, 40% in.
func stackConfig(seed uint64, count int) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.ArrivalRateHint = stackRate
	cfg.Policy = PolicyDeadlineAware
	cfg.Retries = 4
	cfg.RetryBackoff = 2
	cfg.RetryMaxBackoff = 30
	cfg.RetryJitter = true
	cfg.Fault = &fault.Config{
		FailureRate:   0.01,
		GoodToBadRate: 1.0 / 900, BadToGoodRate: 1.0 / 60, BadFailRate: 0.5,
		StragglerProb: 0.05, StragglerFactor: 4, StragglerAlpha: 1.5,
	}
	cfg.Resilience = &sched.Resilience{
		AttemptTimeout: 600,
		HedgeDelay:     60, HedgeQuantile: 0.99, MaxHedges: 1,
		Breaker: &sched.BreakerConfig{FailureThreshold: 5, OpenFor: 20, HalfOpenSuccesses: 1},
	}
	span := float64(count) / stackRate
	cfg.Regions = &RegionsConfig{
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
	ac := adapt.DefaultConfig()
	cfg.Adapt = &ac
	return cfg
}

// newStackSystem builds the stack-deadline System with count tasks of the
// seeded stream submitted; Run is left to the caller.
func newStackSystem(tb testing.TB, seed uint64, count int) *System {
	sys, err := NewSystem(stackConfig(seed, count))
	if err != nil {
		tb.Fatal(err)
	}
	sys.EnableSpans().Bound(stackSpanBound)
	sys.Observe("stack", stackObserveS)
	gen, err := workload.StandardMix(sys.Src.Split())
	if err != nil {
		tb.Fatal(err)
	}
	sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), stackRate), gen, count)
	return sys
}

// BenchmarkStackTask measures the full stack-deadline stack on the layer
// ladder's stream: an operation is one whole System of stackBenchStream
// tasks, built with the timer stopped and run in the operation. Every
// operation runs the same seeded stream from a freshly collected heap, so
// allocs/op is the same exact count whatever b.N and the machine, the
// record pools' growth to the stream's peak backlog included; divided by
// stackBenchStream it is the ladder's full-stack allocs per task. ns/task
// reports the time per task.
func BenchmarkStackTask(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := newStackSystem(b, stackBenchSeed, stackBenchStream)
		runtime.GC()
		b.StartTimer()
		sys.Run()
		if st := sys.Stats(); st.Completed+st.Failed != stackBenchStream || sys.Scheduler.InFlight() != 0 {
			b.Fatalf("%d of %d tasks settled, %d in flight", st.Completed+st.Failed, stackBenchStream, sys.Scheduler.InFlight())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stackBenchStream), "ns/task")
}
