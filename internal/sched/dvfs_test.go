package sched

import (
	"math"
	"testing"

	"offload/internal/model"
)

func TestLocalDVFSStretchesToDeadline(t *testing.T) {
	env := testEnv(t)
	s, err := New(env, LocalOnly{}, Exact{}, WithLocalDVFS(0.1))
	if err != nil {
		t.Fatal(err)
	}
	var out model.Outcome
	onSettle(s, func(o model.Outcome) { out = o })
	// 10 s of full-speed work with a 100 s deadline: the policy should run
	// at scale 10/(100·0.8) = 0.125 → 80 s execution.
	task := &model.Task{ID: 1, App: "x", Cycles: 10e9, Deadline: 100}
	s.Submit(task)
	env.Eng.Run()
	if out.Failed {
		t.Fatal("run failed")
	}
	if math.Abs(float64(out.CompletionTime())-80) > 1e-6 {
		t.Fatalf("DVFS completion = %v, want 80", out.CompletionTime())
	}
	if out.MissedDeadline() {
		t.Fatal("DVFS missed the deadline it was sized for")
	}
	// Energy ∝ f: 0.125 scale → 2 W × 0.125² × 80 s = 2.5 J (vs 20 J full).
	if math.Abs(out.EnergyMilliJ-2500) > 1 {
		t.Fatalf("DVFS energy = %g mJ, want 2500", out.EnergyMilliJ)
	}
}

func TestLocalDVFSFloorsAtMinScale(t *testing.T) {
	env := testEnv(t)
	s, err := New(env, LocalOnly{}, Exact{}, WithLocalDVFS(0.5))
	if err != nil {
		t.Fatal(err)
	}
	var out model.Outcome
	onSettle(s, func(o model.Outcome) { out = o })
	// No deadline: fully delay tolerant, runs at the floor (0.5 → 2x time).
	task := &model.Task{ID: 2, App: "x", Cycles: 10e9}
	s.Submit(task)
	env.Eng.Run()
	if math.Abs(float64(out.CompletionTime())-20) > 1e-6 {
		t.Fatalf("floored completion = %v, want 20", out.CompletionTime())
	}
}

func TestLocalDVFSFullSpeedForTightDeadlines(t *testing.T) {
	env := testEnv(t)
	s, err := New(env, LocalOnly{}, Exact{}, WithLocalDVFS(0.25))
	if err != nil {
		t.Fatal(err)
	}
	var out model.Outcome
	onSettle(s, func(o model.Outcome) { out = o })
	// Deadline barely above full-speed time: no stretching possible.
	task := &model.Task{ID: 3, App: "x", Cycles: 10e9, Deadline: 11}
	s.Submit(task)
	env.Eng.Run()
	if math.Abs(float64(out.CompletionTime())-10) > 1e-6 {
		t.Fatalf("tight-deadline completion = %v, want full-speed 10", out.CompletionTime())
	}
}

func TestDVFSDisabledRunsFullSpeed(t *testing.T) {
	env := testEnv(t)
	s, err := New(env, LocalOnly{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	var out model.Outcome
	onSettle(s, func(o model.Outcome) { out = o })
	task := &model.Task{ID: 4, App: "x", Cycles: 10e9, Deadline: 100}
	s.Submit(task)
	env.Eng.Run()
	if math.Abs(float64(out.CompletionTime())-10) > 1e-6 {
		t.Fatalf("default completion = %v, want 10", out.CompletionTime())
	}
}
