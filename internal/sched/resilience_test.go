package sched

import (
	"errors"
	"math"
	"testing"

	"offload/internal/cloudvm"
	"offload/internal/edge"
	"offload/internal/fault"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// faultyEnv builds a serverless-only environment with deterministic
// timing and the given composite fault model installed on the platform.
func faultyEnv(t *testing.T, seed uint64, cfg fault.Config) *Env {
	t.Helper()
	env := flakyEnv(t, 0)
	inj, err := fault.New(rng.New(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Functions.Platform().SetFaultInjector(inj)
	return env
}

func TestResilienceValidation(t *testing.T) {
	cases := []struct {
		name string
		res  Resilience
	}{
		{"negative attempt timeout", Resilience{AttemptTimeout: -1}},
		{"negative hedge delay", Resilience{HedgeDelay: -1}},
		{"hedge quantile 1", Resilience{HedgeQuantile: 1}},
		{"negative hedge quantile", Resilience{HedgeQuantile: -0.1}},
		{"negative max hedges", Resilience{MaxHedges: -1}},
		{"breaker without threshold", Resilience{Breaker: &BreakerConfig{OpenFor: 10}}},
		{"breaker without cooldown", Resilience{Breaker: &BreakerConfig{FailureThreshold: 3}}},
	}
	env := testEnv(t)
	for _, c := range cases {
		if _, err := New(env, CloudAll{}, Exact{}, WithResilience(c.res)); err == nil {
			t.Errorf("%s: New accepted %+v", c.name, c.res)
		}
	}
	if _, err := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: 10, HalfOpenSuccesses: -1}); err == nil {
		t.Error("NewBreaker accepted negative half-open successes")
	}
}

// TestTransientClassification pins the shared error taxonomy the retry
// layer and the breaker rest on: every substrate's transient error and the
// attempt timeout classify as transient; anything else does not.
func TestTransientClassification(t *testing.T) {
	for _, err := range []error{
		serverless.ErrTransient, edge.ErrTransient, cloudvm.ErrTransient, ErrAttemptTimeout,
	} {
		if !model.Transient(err) {
			t.Errorf("%v not classified transient", err)
		}
	}
	if model.Transient(nil) {
		t.Error("nil error classified transient")
	}
	if model.Transient(errors.New("out of memory")) {
		t.Error("task-caused error classified transient")
	}
}

// TestBreakerStateMachine walks the full closed → open → half-open →
// closed cycle, the single-probe rule, the consecutive-failure reset, and
// reopening on a failed probe.
func TestBreakerStateMachine(t *testing.T) {
	br, err := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: 10, HalfOpenSuccesses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if br.State() != BreakerClosed {
		t.Fatalf("initial state %v", br.State())
	}
	br.OnFailure(1)
	br.OnFailure(2)
	if br.State() != BreakerClosed {
		t.Fatal("opened below the failure threshold")
	}
	if !br.Allow(2) {
		t.Fatal("closed breaker refused traffic")
	}
	br.OnFailure(3)
	if br.State() != BreakerOpen || br.Opens() != 1 {
		t.Fatalf("state %v opens %d after third failure", br.State(), br.Opens())
	}
	if br.Allow(5) {
		t.Fatal("open breaker admitted traffic during cooldown")
	}
	if !br.Allow(13.5) {
		t.Fatal("probe refused after cooldown")
	}
	if br.State() != BreakerHalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", br.State())
	}
	if br.Allow(14) {
		t.Fatal("second probe admitted while the first is in flight")
	}
	br.OnSuccess()
	if br.State() != BreakerHalfOpen {
		t.Fatal("closed before HalfOpenSuccesses probes")
	}
	if !br.Allow(15) {
		t.Fatal("second probe refused after the first succeeded")
	}
	br.OnSuccess()
	if br.State() != BreakerClosed {
		t.Fatalf("state %v after enough probe successes, want closed", br.State())
	}

	// Only *consecutive* failures trip: a success in between resets.
	br.OnFailure(20)
	br.OnFailure(21)
	br.OnSuccess()
	br.OnFailure(22)
	br.OnFailure(23)
	if br.State() != BreakerClosed {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
	br.OnFailure(24)
	if br.State() != BreakerOpen || br.Opens() != 2 {
		t.Fatalf("state %v opens %d", br.State(), br.Opens())
	}

	// A failed half-open probe reopens for a fresh cooldown.
	if !br.Allow(40) {
		t.Fatal("probe refused after second cooldown")
	}
	br.OnFailure(40)
	if br.State() != BreakerOpen || br.Opens() != 3 {
		t.Fatalf("failed probe left state %v opens %d", br.State(), br.Opens())
	}
	if br.Allow(45) {
		t.Fatal("reopened breaker admitted traffic during cooldown")
	}
}

// TestBreakerFallbackBeatsFailFast is the headline resilience claim: under
// a sustained 300 s outage, retry+breaker+fallback loses no tasks while
// fail-fast loses every task that arrives during the outage — far more
// than a 10× difference in task-failure rate.
func TestBreakerFallbackBeatsFailFast(t *testing.T) {
	outage := fault.Config{Outages: []fault.Window{{Start: 5, Duration: 300}}}
	const tasks = 61

	run := func(s *Scheduler, env *Env) {
		for i := 0; i < tasks; i++ {
			task := heavyTask(model.TaskID(i + 1))
			task.Cycles = 1e9
			env.Eng.At(sim.Time(i*10), func() { s.Submit(task) })
		}
		env.Eng.Run()
	}

	ffEnv := faultyEnv(t, 17, outage)
	ff, err := New(ffEnv, CloudAll{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	run(ff, ffEnv)

	resEnv := faultyEnv(t, 17, outage)
	res, err := New(resEnv, CloudAll{}, Exact{},
		WithRetries(RetryPolicy{MaxAttempts: 4, Backoff: 2, MaxBackoff: 16}),
		WithResilience(Resilience{
			Breaker: &BreakerConfig{FailureThreshold: 3, OpenFor: 30},
		}))
	if err != nil {
		t.Fatal(err)
	}
	run(res, resEnv)

	// ~30 of the 61 tasks arrive inside the outage window.
	if ff.Stats().Failed < 20 {
		t.Fatalf("fail-fast lost only %d tasks during a 300 s outage", ff.Stats().Failed)
	}
	if res.Stats().Failed != 0 {
		t.Fatalf("retry+breaker+fallback lost %d tasks", res.Stats().Failed)
	}
	// With zero resilient failures the ratio is unbounded; requiring at
	// least 10 fail-fast failures makes the ≥10× claim hold even if the
	// resilient side were charged one phantom failure.
	if ff.Stats().Failed < 10 {
		t.Fatalf("failure gap below 10×: fail-fast %d vs resilient 0", ff.Stats().Failed)
	}
	if res.Stats().Fallbacks == 0 {
		t.Fatal("open breaker never rerouted to the fallback")
	}
	br := res.breakers[model.PlaceFunction]
	if br == nil {
		t.Fatal("no breaker materialised for the serverless placement")
	}
	// The 300 s outage spans multiple 30 s cooldowns: failed half-open
	// probes must have reopened the breaker at least once.
	if br.Opens() < 2 {
		t.Fatalf("breaker opened %d times, want ≥ 2 (probe reopenings)", br.Opens())
	}
	// Recovery: once the outage clears, a probe succeeds, the breaker
	// closes and traffic returns to serverless.
	if br.State() != BreakerClosed {
		t.Fatalf("breaker %v after the outage cleared, want closed", br.State())
	}
	if res.Stats().ByPlacement[model.PlaceFunction] < 20 {
		t.Fatalf("only %d tasks ran on serverless after recovery",
			res.Stats().ByPlacement[model.PlaceFunction])
	}
	if res.Stats().ByPlacement[model.PlaceLocal] == 0 {
		t.Fatal("no task completed on the local fallback")
	}
}

// TestAttemptTimeoutKillsStragglers: a heavy-tailed slowdown on half the
// invocations is neutralised by the per-attempt timeout — the straggling
// attempt is abandoned and the re-dispatch (usually) draws a fast one.
func TestAttemptTimeoutKillsStragglers(t *testing.T) {
	env := faultyEnv(t, 23, fault.Config{
		StragglerProb: 0.5, StragglerFactor: 50, StragglerAlpha: 2,
	})
	s, err := New(env, CloudAll{}, Exact{},
		WithRetries(RetryPolicy{MaxAttempts: 8, Backoff: 1}),
		WithResilience(Resilience{AttemptTimeout: 10}))
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	onSettle(s, func(o model.Outcome) {
		if !o.Failed {
			completed++
		}
	})
	const tasks = 20
	for i := 0; i < tasks; i++ {
		task := heavyTask(model.TaskID(i + 1))
		task.Cycles = 1e9
		env.Eng.At(sim.Time(i*120), func() { s.Submit(task) })
	}
	env.Eng.Run()
	if completed != tasks {
		t.Fatalf("completed %d/%d", completed, tasks)
	}
	if s.Stats().Timeouts == 0 {
		t.Fatal("50%% stragglers at 50× produced no attempt timeouts")
	}
	if s.Stats().Retries == 0 {
		t.Fatal("abandoned attempts were not re-dispatched")
	}
	if s.Stats().Failed != 0 {
		t.Fatalf("Failed = %d", s.Stats().Failed)
	}
}

// TestAttemptTimeoutExhausts: when every attempt exceeds the timeout the
// task fails terminally with ErrAttemptTimeout, and the cost of every
// abandoned (but still billed) attempt is folded into the final outcome.
func TestAttemptTimeoutExhausts(t *testing.T) {
	env := flakyEnv(t, 0)
	s, err := New(env, CloudAll{}, Exact{},
		WithRetries(RetryPolicy{MaxAttempts: 3, Backoff: 1}),
		WithResilience(Resilience{AttemptTimeout: 0.5})) // below any exec time
	if err != nil {
		t.Fatal(err)
	}
	var out model.Outcome
	onSettle(s, func(o model.Outcome) { out = o })
	task := heavyTask(1)
	task.Cycles = 1e9
	s.Submit(task)
	env.Eng.Run()
	if !out.Failed {
		t.Fatal("task with an unmeetable attempt timeout succeeded")
	}
	if !errors.Is(out.Exec.Err, ErrAttemptTimeout) {
		t.Fatalf("Err = %v, want ErrAttemptTimeout", out.Exec.Err)
	}
	if !model.Transient(out.Exec.Err) {
		t.Fatal("attempt timeout not classified transient")
	}
	if out.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", out.Attempts)
	}
	if got := s.Stats().Timeouts; got != 3 {
		t.Fatalf("Timeouts = %d, want 3", got)
	}
	if got := s.Stats().Retries; got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
	billed := env.Functions.Platform().Stats().BilledUSD
	if billed <= 0 {
		t.Fatal("abandoned attempts were not billed")
	}
	if math.Abs(out.CostUSD-billed) > 1e-12+1e-9*billed {
		t.Fatalf("outcome cost %g != platform billed %g: zombie attempts not folded once",
			out.CostUSD, billed)
	}
}

// TestHedgingBeatsStragglers: with hedging on, a straggling primary is
// overtaken by its duplicate, and the loser's bill still lands in the
// outcome exactly once (scheduler cost == platform billed).
func TestHedgingBeatsStragglers(t *testing.T) {
	env := faultyEnv(t, 31, fault.Config{
		StragglerProb: 0.5, StragglerFactor: 50, StragglerAlpha: 2,
	})
	s, err := New(env, CloudAll{}, Exact{},
		WithResilience(Resilience{HedgeDelay: 10, MaxHedges: 1}))
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 30
	completed := 0
	var worst sim.Duration
	onSettle(s, func(o model.Outcome) {
		if !o.Failed {
			completed++
			if d := o.CompletionTime(); d > worst {
				worst = d
			}
		}
	})
	for i := 0; i < tasks; i++ {
		task := heavyTask(model.TaskID(i + 1))
		task.Cycles = 1e9
		env.Eng.At(sim.Time(i*150), func() { s.Submit(task) })
	}
	env.Eng.Run()
	if completed != tasks {
		t.Fatalf("completed %d/%d", completed, tasks)
	}
	if s.Stats().Hedges == 0 {
		t.Fatal("no hedges launched against 50% stragglers")
	}
	if s.Stats().HedgeWins == 0 {
		t.Fatal("no hedge ever beat its straggling primary")
	}
	// A winning hedge caps completion at roughly delay + one fast attempt;
	// without hedging a 50× straggler on ~1.5 s work runs >70 s.
	if worst >= 70 {
		t.Fatalf("worst completion %g s: hedging did not cut the straggler tail", float64(worst))
	}
	billed := env.Functions.Platform().Stats().BilledUSD
	if math.Abs(s.Stats().CostUSD-billed) > 1e-12+1e-9*billed {
		t.Fatalf("scheduler cost %g != platform billed %g: losing hedges not folded once",
			s.Stats().CostUSD, billed)
	}
}

// TestHedgeDelayQuantile: the hedge delay follows the fixed HedgeDelay
// until 20 remote latencies are observed, then switches to the configured
// quantile of the observed distribution.
func TestHedgeDelayQuantile(t *testing.T) {
	env := flakyEnv(t, 0)
	s, err := New(env, CloudAll{}, Exact{}, WithResilience(Resilience{
		HedgeQuantile: 0.9, HedgeDelay: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 19; i++ {
		if d, ok := s.hedgeDelay(); !ok || d != 3 {
			t.Fatalf("hedgeDelay after %d samples = (%g, %v), want fixed 3", i, float64(d), ok)
		}
		s.attemptLat.Observe(7)
	}
	if d, ok := s.hedgeDelay(); !ok || d != 3 {
		t.Fatalf("hedgeDelay after 19 samples = (%g, %v), want fixed 3", float64(d), ok)
	}
	s.attemptLat.Observe(7)
	d, ok := s.hedgeDelay()
	if !ok || d < 6 || d > 9 {
		t.Fatalf("hedgeDelay after samples = (%g, %v), want ≈ 7 (0.9-quantile)", float64(d), ok)
	}
}

// TestRetryDelayCapAndOverflow pins the backoff arithmetic: the exponent
// is capped so large attempt counts cannot overflow into negative delays,
// and MaxBackoff clamps the result.
func TestRetryDelayCapAndOverflow(t *testing.T) {
	env := testEnv(t)
	s, err := New(env, CloudAll{}, Exact{},
		WithRetries(RetryPolicy{MaxAttempts: 1 << 20, Backoff: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// The old int-shift formula produced 0 or negative delays past n=63;
	// the capped formula must stay positive and monotone non-decreasing.
	prev := sim.Duration(0)
	for n := 1; n <= 200; n++ {
		d := s.retryDelay(n)
		if d <= 0 {
			t.Fatalf("retryDelay(%d) = %g: overflow", n, float64(d))
		}
		if d < prev {
			t.Fatalf("retryDelay(%d) = %g < retryDelay(%d) = %g", n, float64(d), n-1, float64(prev))
		}
		prev = d
	}
	if got := s.retryDelay(100); got != sim.Duration(math.Ldexp(1, 30)) {
		t.Fatalf("uncapped retryDelay(100) = %g, want 2^30", float64(got))
	}

	s.retry.MaxBackoff = 60
	if got := s.retryDelay(10); got != 60 {
		t.Fatalf("capped retryDelay(10) = %g, want MaxBackoff 60", float64(got))
	}
	if got := s.retryDelay(1); got != 1 {
		t.Fatalf("retryDelay(1) = %g below the cap, want 1", float64(got))
	}
}

// TestRetryJitterDeterminism: full jitter draws uniformly below the capped
// backoff from the scheduler's own stream, so equal seeds give equal delay
// sequences.
func TestRetryJitterDeterminism(t *testing.T) {
	mk := func() *Scheduler {
		s, err := New(testEnv(t), CloudAll{}, Exact{},
			WithRetries(RetryPolicy{MaxAttempts: 100, Backoff: 1, MaxBackoff: 60, Jitter: rng.New(7)}))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	sawSpread := false
	for n := 1; n <= 50; n++ {
		da, db := a.retryDelay(n), b.retryDelay(n)
		if da != db {
			t.Fatalf("retryDelay(%d) diverged across equal seeds: %g vs %g", n, float64(da), float64(db))
		}
		if da < 0 || float64(da) >= 60 {
			t.Fatalf("jittered retryDelay(%d) = %g outside [0, 60)", n, float64(da))
		}
		if n > 6 && da != 60 {
			sawSpread = true // jitter actually moved the capped value
		}
	}
	if !sawSpread {
		t.Fatal("full jitter never moved the delay off the cap")
	}
}

// TestBatcherWithRetries: batched serverless chains only advance after a
// task's *final* outcome, and sunk cost from failed attempts lands in the
// totals exactly once (scheduler cost == platform billed).
func TestBatcherWithRetries(t *testing.T) {
	env := flakyEnv(t, 0.3)
	s, err := New(env, CloudAll{}, Exact{},
		WithRetries(RetryPolicy{MaxAttempts: 8, Backoff: 0.5}),
		WithResilience(Resilience{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(s, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	onSettle(s, func(o model.Outcome) {
		if !o.Failed {
			completed++
		}
	})
	const tasks = 20
	for i := 0; i < tasks; i++ {
		task := heavyTask(model.TaskID(i + 1))
		task.Cycles = 1e9
		b.Submit(task)
	}
	env.Eng.Run()
	if completed != tasks {
		t.Fatalf("completed %d/%d batched tasks", completed, tasks)
	}
	if b.Flushes() != 4 {
		t.Fatalf("Flushes = %d, want 4 full batches", b.Flushes())
	}
	if s.Stats().Retries == 0 {
		t.Fatal("30%% failure rate produced no retries through the batcher")
	}
	billed := env.Functions.Platform().Stats().BilledUSD
	if math.Abs(s.Stats().CostUSD-billed) > 1e-12+1e-9*billed {
		t.Fatalf("scheduler cost %g != platform billed %g: sunk cost not counted once",
			s.Stats().CostUSD, billed)
	}
	// Every attempt (successes + retried failures) paid at least one
	// uncontended uplink's radio energy: sunk energy is retained too.
	task := heavyTask(0)
	upMJ := 1.2 * 8 * float64(task.InputBytes) / 50e6 * 1000
	attempts := float64(uint64(tasks) + s.Stats().Retries)
	if s.Stats().EnergyMilliJ < attempts*upMJ*0.99 {
		t.Fatalf("EnergyMilliJ = %g below %g: failed attempts' energy dropped",
			s.Stats().EnergyMilliJ, attempts*upMJ)
	}
}

// TestShifterWithRetries: tasks shifted into the off-peak window still
// retry transparently there, and sunk cost is counted exactly once.
func TestShifterWithRetries(t *testing.T) {
	env := testEnv(t)
	env.Edge, env.EdgePath, env.VM = nil, nil, nil
	cfg := env.Functions.Platform().Config()
	cfg.FailureRate = 0.3
	cfg.ColdStart = serverless.ColdStartModel{}
	cfg.Price.OffPeakFactor = 0.5
	cfg.Price.OffPeakStartHour = 1
	cfg.Price.OffPeakEndHour = 2
	env.Functions = NewFunctionPool(serverless.NewPlatform(env.Eng, rng.New(99), cfg))

	s, err := New(env, CloudAll{}, Exact{},
		WithRetries(RetryPolicy{MaxAttempts: 8, Backoff: 1}),
		WithResilience(Resilience{}))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewOffPeakShifter(s)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	var earliest sim.Time = math.MaxFloat64
	onSettle(s, func(o model.Outcome) {
		if !o.Failed {
			completed++
			if o.Finished < earliest {
				earliest = o.Finished
			}
		}
	})
	const tasks = 10
	for i := 0; i < tasks; i++ {
		task := heavyTask(model.TaskID(i + 1))
		task.Cycles = 1e9
		task.Deadline = 0 // fully delay tolerant
		sh.Submit(task)
	}
	env.Eng.Run()
	if sh.Shifted() != tasks {
		t.Fatalf("Shifted = %d, want %d", sh.Shifted(), tasks)
	}
	if completed != tasks {
		t.Fatalf("completed %d/%d shifted tasks", completed, tasks)
	}
	if earliest < 3600 {
		t.Fatalf("task finished at %g, before the 01:00 off-peak window", float64(earliest))
	}
	if s.Stats().Retries == 0 {
		t.Fatal("30%% failure rate produced no retries through the shifter")
	}
	billed := env.Functions.Platform().Stats().BilledUSD
	if math.Abs(s.Stats().CostUSD-billed) > 1e-12+1e-9*billed {
		t.Fatalf("scheduler cost %g != platform billed %g: sunk cost not counted once",
			s.Stats().CostUSD, billed)
	}
}

// TestBreakerReopenFreshTimer is the regression test for the HalfOpen
// probe-failure path: the reopened breaker's cooldown is measured from
// the probe failure, never from the original trip — a stale timer would
// re-admit traffic immediately.
func TestBreakerReopenFreshTimer(t *testing.T) {
	br, err := NewBreaker(BreakerConfig{FailureThreshold: 2, OpenFor: 10, HalfOpenSuccesses: 1})
	if err != nil {
		t.Fatal(err)
	}
	br.OnFailure(0)
	br.OnFailure(0)
	if br.State() != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", br.State())
	}
	if !br.Allow(10) {
		t.Fatal("probe refused after the first cooldown")
	}
	br.OnFailure(10) // probe fails at t=10
	if br.State() != BreakerOpen || br.Opens() != 2 {
		t.Fatalf("state %v opens %d after probe failure, want open/2", br.State(), br.Opens())
	}
	// A stale timer (cooldown from the original trip at t=0) would admit
	// traffic right away; the fresh timer holds until t=20.
	if br.Allow(10.1) {
		t.Fatal("reopened breaker admitted traffic immediately after the failed probe")
	}
	if br.Allow(19.9) {
		t.Fatal("reopened breaker admitted traffic before the fresh cooldown elapsed")
	}
	if !br.Allow(20) {
		t.Fatal("reopened breaker refused the probe after a full fresh cooldown")
	}
}
