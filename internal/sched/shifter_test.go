package sched

import (
	"testing"

	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// offPeakEnv builds a serverless-only environment whose platform carries a
// 22:00–06:00 discount window.
func offPeakEnv(t *testing.T) *Env {
	t.Helper()
	env := testEnv(t)
	env.Edge, env.EdgePath, env.VM = nil, nil, nil
	cfg := env.Functions.Platform().Config()
	cfg.Price.OffPeakFactor = 0.4
	cfg.Price.OffPeakStartHour = 22
	cfg.Price.OffPeakEndHour = 6
	cfg.ColdStart = serverless.ColdStartModel{}
	platform := serverless.NewPlatform(env.Eng, rng.New(5), cfg)
	env.Functions = NewFunctionPool(platform)
	return env
}

func TestShifterRequiresServerless(t *testing.T) {
	env := testEnv(t)
	env.Functions, env.CloudPath = nil, nil
	env.Edge, env.EdgePath, env.VM = nil, nil, nil
	s, err := New(env, LocalOnly{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOffPeakShifter(s); err == nil {
		t.Fatal("shifter without serverless accepted")
	}
	if _, err := NewOffPeakShifter(nil); err == nil {
		t.Fatal("shifter over nil scheduler accepted")
	}
}

func TestShifterDelaysSlackRichTask(t *testing.T) {
	env := offPeakEnv(t)
	s, err := New(env, CloudAll{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewOffPeakShifter(s)
	if err != nil {
		t.Fatal(err)
	}
	var out model.Outcome
	onSettle(s, func(o model.Outcome) { out = o })
	// Submitted at 20:00 with an 8-hour deadline: can afford the 2 h wait.
	task := heavyTask(1)
	task.Cycles = 2e9
	task.Deadline = 8 * 3600
	env.Eng.At(sim.Time(20*3600), func() { sh.Submit(task) })
	env.Eng.Run()
	if sh.Shifted() != 1 {
		t.Fatalf("Shifted = %d", sh.Shifted())
	}
	// Execution started inside the window (22:00 = 79200 s).
	if out.Exec.Start < sim.Time(22*3600) {
		t.Fatalf("execution started at %v, before the window", out.Exec.Start)
	}
	if out.MissedDeadline() {
		t.Fatal("shifted task missed its deadline")
	}
}

func TestShifterDispatchesTightDeadlineImmediately(t *testing.T) {
	env := offPeakEnv(t)
	s, err := New(env, CloudAll{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewOffPeakShifter(s)
	if err != nil {
		t.Fatal(err)
	}
	var out model.Outcome
	onSettle(s, func(o model.Outcome) { out = o })
	// 10-minute deadline at 20:00: cannot wait for 22:00.
	task := heavyTask(2)
	task.Cycles = 2e9
	task.Deadline = 600
	env.Eng.At(sim.Time(20*3600), func() { sh.Submit(task) })
	env.Eng.Run()
	if sh.Shifted() != 0 || sh.Immediate() != 1 {
		t.Fatalf("Shifted/Immediate = %d/%d", sh.Shifted(), sh.Immediate())
	}
	if out.MissedDeadline() {
		t.Fatal("immediate dispatch missed the deadline")
	}
}

func TestShifterNoDeadlineAlwaysWaits(t *testing.T) {
	env := offPeakEnv(t)
	s, err := New(env, CloudAll{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewOffPeakShifter(s)
	if err != nil {
		t.Fatal(err)
	}
	task := heavyTask(3)
	task.Cycles = 2e9
	task.Deadline = 0 // fully delay tolerant
	env.Eng.At(sim.Time(12*3600), func() { sh.Submit(task) })
	env.Eng.Run()
	if sh.Shifted() != 1 {
		t.Fatalf("delay-tolerant task not shifted: %d", sh.Shifted())
	}
}

func TestShifterInsideWindowDispatchesNow(t *testing.T) {
	env := offPeakEnv(t)
	s, err := New(env, CloudAll{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewOffPeakShifter(s)
	if err != nil {
		t.Fatal(err)
	}
	task := heavyTask(4)
	task.Cycles = 2e9
	env.Eng.At(sim.Time(23*3600), func() { sh.Submit(task) })
	env.Eng.Run()
	if sh.Immediate() != 1 || sh.Shifted() != 0 {
		t.Fatalf("in-window submission shifted: %d/%d", sh.Shifted(), sh.Immediate())
	}
}

func TestShifterWithoutScheduleDispatchesNow(t *testing.T) {
	env := testEnv(t) // LambdaLike: no off-peak schedule
	env.Edge, env.EdgePath, env.VM = nil, nil, nil
	s, err := New(env, CloudAll{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewOffPeakShifter(s)
	if err != nil {
		t.Fatal(err)
	}
	task := heavyTask(5)
	task.Cycles = 2e9
	sh.Submit(task)
	env.Eng.Run()
	if sh.Immediate() != 1 {
		t.Fatal("no-schedule platform still shifted")
	}
}

func TestShifterNonServerlessPlacementBypasses(t *testing.T) {
	env := offPeakEnv(t)
	s, err := New(env, LocalOnly{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewOffPeakShifter(s)
	if err != nil {
		t.Fatal(err)
	}
	task := heavyTask(6)
	task.Cycles = 2e9
	env.Eng.At(sim.Time(12*3600), func() { sh.Submit(task) })
	env.Eng.Run()
	if sh.Immediate() != 1 || sh.Shifted() != 0 {
		t.Fatal("local placement went through the shifter queue")
	}
	if s.Stats().ByPlacement[model.PlaceLocal] != 1 {
		t.Fatal("task did not run locally")
	}
}
