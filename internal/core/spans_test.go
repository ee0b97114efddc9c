package core

import (
	"testing"

	"offload/internal/fault"
	"offload/internal/sched"
	"offload/internal/trace"
	"offload/internal/workload"
)

// spanHeavyConfig exercises every traced scheduler path: retries with
// jitter, hedges, per-attempt timeouts, a circuit breaker with local
// fallback, and a straggler-laden fault injector to trip them all.
func spanHeavyConfig() Config {
	cfg := DefaultConfig()
	cfg.Policy = PolicyCloudAll
	cfg.Retries = 4
	cfg.RetryBackoff = 2
	cfg.RetryJitter = true
	cfg.Fault = &fault.Config{
		Outages:       []fault.Window{{Start: 30, Duration: 40}},
		StragglerProb: 0.15, StragglerFactor: 5, StragglerAlpha: 1.5,
	}
	cfg.Resilience = &sched.Resilience{
		AttemptTimeout: 90,
		HedgeDelay:     15, HedgeQuantile: 0.9, MaxHedges: 1,
		Breaker: &sched.BreakerConfig{FailureThreshold: 4, OpenFor: 15, HalfOpenSuccesses: 1},
	}
	return cfg
}

// TestSpansAreInert: enabling span recording must not change any
// simulated result — same outcomes, same spend, same end time, same
// event count — on a run that exercises retries, hedges, timeouts,
// breaker transitions and fallback.
func TestSpansAreInert(t *testing.T) {
	const tasks = 60
	run := func(spans bool) (*System, int, []trace.Record) {
		cfg := spanHeavyConfig()
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := &trace.Recorder{}
		sys.Env.Events.Subscribe(rec)
		if spans {
			sys.EnableSpans()
		}
		gen, err := workload.StandardMix(sys.Src.Split())
		if err != nil {
			t.Fatal(err)
		}
		sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), 0.5), gen, tasks)
		sys.Run()
		n := 0
		if set := sys.SpanSet(); set != nil {
			n = len(set.Spans)
		}
		return sys, n, rec.Records()
	}
	plain, _, pr := run(false)
	traced, spans, tr := run(true)
	if spans == 0 {
		t.Fatal("span recording produced no spans")
	}

	a, b := plain.Stats(), traced.Stats()
	if a.Completed != b.Completed || a.Failed != b.Failed || a.Missed != b.Missed ||
		a.Retries != b.Retries || a.Timeouts != b.Timeouts ||
		a.Hedges != b.Hedges || a.HedgeWins != b.HedgeWins || a.Fallbacks != b.Fallbacks {
		t.Fatalf("span recording changed task counters:\nplain  %+v\ntraced %+v", a, b)
	}
	if a.MeanCompletion() != b.MeanCompletion() || a.CostUSD != b.CostUSD ||
		a.FailedCostUSD != b.FailedCostUSD || a.EnergyMilliJ != b.EnergyMilliJ {
		t.Fatal("span recording changed aggregate results")
	}
	if plain.Eng.Now() != traced.Eng.Now() {
		t.Fatalf("span recording moved the end-of-run clock: %v vs %v", plain.Eng.Now(), traced.Eng.Now())
	}
	if plain.Eng.Fired() != traced.Eng.Fired() {
		t.Fatalf("span recording fired events: %d vs %d", plain.Eng.Fired(), traced.Eng.Fired())
	}
	if plain.InfrastructureCostUSD() != traced.InfrastructureCostUSD() {
		t.Fatal("span recording changed infrastructure cost accrual")
	}
	if len(pr) != tasks || len(tr) != tasks {
		t.Fatalf("record counts %d and %d, want %d each", len(pr), len(tr), tasks)
	}
	for i := range pr {
		if pr[i] != tr[i] {
			t.Fatalf("record %d differs:\nplain  %+v\ntraced %+v", i, pr[i], tr[i])
		}
	}
}

// TestSpanRunConsistency: the recorded spans must agree with the
// scheduler's own accounting — one root per settled task, per-attempt
// money summing to the stats' spend, and phase attribution covering every
// completed task's full completion time.
func TestSpanRunConsistency(t *testing.T) {
	sys, err := NewSystem(spanHeavyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableSpans()
	gen, err := workload.StandardMix(sys.Src.Split())
	if err != nil {
		t.Fatal(err)
	}
	sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), 0.5), gen, 60)
	sys.Run()

	st := sys.Stats()
	set := sys.SpanSet()
	roots := 0
	for _, sp := range set.Spans {
		if sp.Name == trace.SpanTask {
			roots++
		}
	}
	if want := int(st.Completed + st.Failed); roots != want {
		t.Fatalf("%d task root spans, want %d", roots, want)
	}

	w := trace.ComputeWaste(set)
	ground := st.CostUSD + st.FailedCostUSD
	for name, got := range map[string]float64{"attempt": w.AttemptUSD, "task": w.TaskUSD} {
		if d := got - ground; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s span spend %.12g != stats spend %.12g", name, got, ground)
		}
	}

	// Every completed task's critical path must cover its completion time
	// exactly: phases partition [Started, Finished].
	for _, p := range trace.CriticalPaths(set) {
		if p.Failed {
			continue
		}
		total := 0.0
		for _, v := range p.PhaseS {
			total += v
		}
		if d := total - p.CompletionS; d > 1e-6 || d < -1e-6 {
			t.Errorf("task %d: phases sum to %.9g, completion %.9g", p.Trace, total, p.CompletionS)
		}
	}

	// The report surfaces the breakdown.
	rep := sys.Report()
	if len(rep.Phases) == 0 {
		t.Fatal("report has no phase breakdown despite spans being enabled")
	}
	share := 0.0
	for _, ph := range rep.Phases {
		share += ph.Share
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("phase shares sum to %g, want 1", share)
	}
}
