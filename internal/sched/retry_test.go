package sched

import (
	"errors"
	"testing"

	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// flakyEnv builds a serverless-only environment whose platform fails the
// given fraction of invocations.
func flakyEnv(t *testing.T, failureRate float64) *Env {
	t.Helper()
	env := testEnv(t)
	env.Edge, env.EdgePath, env.VM = nil, nil, nil
	cfg := env.Functions.Platform().Config()
	cfg.FailureRate = failureRate
	cfg.ColdStart = serverless.ColdStartModel{} // deterministic timing
	platform := serverless.NewPlatform(env.Eng, rng.New(99), cfg)
	env.Functions = NewFunctionPool(platform)
	return env
}

func TestTransientFailuresSurfaceWithoutRetries(t *testing.T) {
	env := flakyEnv(t, 0.9999) // effectively always fails
	s, err := New(env, CloudAll{}, Exact{})
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
		t.Fatal("near-certain failure did not fail")
	}
	if !errors.Is(out.Exec.Err, serverless.ErrTransient) {
		t.Fatalf("Err = %v, want ErrTransient", out.Exec.Err)
	}
	if out.CostUSD <= 0 {
		t.Fatal("crashed invocation was not billed")
	}
}

func TestRetriesRecoverTransientFailures(t *testing.T) {
	env := flakyEnv(t, 0.3)
	s, err := New(env, CloudAll{}, Exact{}, WithRetries(RetryPolicy{MaxAttempts: 8, Backoff: 1}))
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	maxAttempts := 0
	onSettle(s, func(o model.Outcome) {
		if !o.Failed {
			completed++
		}
		if o.Attempts > maxAttempts {
			maxAttempts = o.Attempts
		}
	})
	for i := 0; i < 50; i++ {
		task := heavyTask(model.TaskID(i + 1))
		task.Cycles = 1e9
		env.Eng.At(sim.Time(i*30), func() { s.Submit(task) })
	}
	env.Eng.Run()
	if completed != 50 {
		t.Fatalf("completed %d/50 despite retries", completed)
	}
	if s.Stats().Retries == 0 {
		t.Fatal("30%% failure rate produced no retries")
	}
	if maxAttempts < 2 {
		t.Fatal("no task needed more than one attempt")
	}
	if s.Stats().Failed != 0 {
		t.Fatalf("Failed = %d", s.Stats().Failed)
	}
}

func TestRetriesExhaust(t *testing.T) {
	env := flakyEnv(t, 0.9999)
	s, err := New(env, CloudAll{}, Exact{}, WithRetries(RetryPolicy{MaxAttempts: 3, Backoff: 1}))
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
		t.Fatal("always-failing task succeeded")
	}
	if out.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", out.Attempts)
	}
	if s.Stats().Retries != 2 {
		t.Fatalf("Retries = %d, want 2", s.Stats().Retries)
	}
}

func TestRetryAccumulatesSunkCost(t *testing.T) {
	env := flakyEnv(t, 0.9999)
	s, err := New(env, CloudAll{}, Exact{}, WithRetries(RetryPolicy{MaxAttempts: 4, Backoff: 1}))
	if err != nil {
		t.Fatal(err)
	}
	var out model.Outcome
	onSettle(s, func(o model.Outcome) { out = o })
	task := heavyTask(1)
	task.Cycles = 1e9
	s.Submit(task)
	env.Eng.Run()
	// Four billed attempts: the final outcome's cost must cover all of
	// them (each crash bills a random fraction, so just require more than
	// one attempt's share of the radio energy too).
	if out.Attempts != 4 {
		t.Fatalf("Attempts = %d", out.Attempts)
	}
	singleUplinkMJ := 1.2 * 8 * float64(task.InputBytes) / 50e6 * 1000
	if out.EnergyMilliJ < 2*singleUplinkMJ {
		t.Fatalf("EnergyMilliJ = %g does not include sunk attempts", out.EnergyMilliJ)
	}
}

func TestRetryBackoffDelaysRedispatch(t *testing.T) {
	env := flakyEnv(t, 0.9999)
	s, err := New(env, CloudAll{}, Exact{}, WithRetries(RetryPolicy{MaxAttempts: 3, Backoff: 100}))
	if err != nil {
		t.Fatal(err)
	}
	var finished sim.Time
	onSettle(s, func(o model.Outcome) { finished = o.Finished })
	task := heavyTask(1)
	task.Cycles = 1e9
	s.Submit(task)
	env.Eng.Run()
	// Backoffs of 100 and 200 must be visible in the completion time.
	if finished < 300 {
		t.Fatalf("finished at %v, expected exponential backoff past 300", finished)
	}
}

func TestNonTransientErrorsAreNotRetried(t *testing.T) {
	env := testEnv(t)
	env.Edge, env.EdgePath, env.VM = nil, nil, nil
	s, err := New(env, CloudAll{}, Exact{}, WithRetries(RetryPolicy{MaxAttempts: 5, Backoff: 1}))
	if err != nil {
		t.Fatal(err)
	}
	var out model.Outcome
	onSettle(s, func(o model.Outcome) { out = o })
	task := heavyTask(1)
	task.MemoryBytes = 64 * 1 << 30 // can never fit: permanent error
	s.Submit(task)
	env.Eng.Run()
	if !out.Failed {
		t.Fatal("oversized task succeeded")
	}
	if s.Stats().Retries != 0 {
		t.Fatalf("permanent failure was retried %d times", s.Stats().Retries)
	}
}

func TestFailureRateValidation(t *testing.T) {
	cfg := serverless.LambdaLike()
	cfg.FailureRate = 1.0
	if err := cfg.Validate(); err == nil {
		t.Fatal("failure rate 1.0 accepted")
	}
	cfg.FailureRate = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative failure rate accepted")
	}
}
