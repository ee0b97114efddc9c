package sched

import (
	"testing"

	"offload/internal/model"
	"offload/internal/sim"
	"offload/internal/trace"
)

func TestBudgetValidation(t *testing.T) {
	if _, err := NewBudget(nil, 1); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewBudget(sim.NewEngine(), 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewBudget(sim.NewEngine(), -1); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestBudgetChargesAndExhausts(t *testing.T) {
	eng := sim.NewEngine()
	b, err := NewBudget(eng, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	charge := func(usd float64) {
		b.OnEvent(trace.Event{Kind: trace.KindSettle, Outcome: model.Outcome{CostUSD: usd}})
	}
	if b.Exhausted() {
		t.Fatal("fresh budget exhausted")
	}
	charge(0.0006)
	if b.Exhausted() {
		t.Fatal("half-spent budget exhausted")
	}
	charge(0.0006)
	if !b.Exhausted() {
		t.Fatal("overspent budget not exhausted")
	}
	if b.Remaining() != 0 {
		t.Fatalf("Remaining = %g", b.Remaining())
	}
}

func TestBudgetResetsDaily(t *testing.T) {
	eng := sim.NewEngine()
	b, err := NewBudget(eng, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	b.OnEvent(trace.Event{Kind: trace.KindSettle, Outcome: model.Outcome{CostUSD: 1}})
	if !b.Exhausted() {
		t.Fatal("not exhausted")
	}
	eng.RunUntil(86400 + 10) // next virtual day
	if b.Exhausted() {
		t.Fatal("budget did not reset on day roll")
	}
}

func TestBudgetedPolicyOverridesWhenExhausted(t *testing.T) {
	env := testEnv(t)
	b, err := NewBudget(env.Eng, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	pol := &BudgetedPolicy{Inner: CloudAll{}, Budget: b}
	task := heavyTask(1)
	if got := pol.Decide(task, env, Exact{}); got != model.PlaceFunction {
		t.Fatalf("fresh budget placed at %v", got)
	}
	b.OnEvent(trace.Event{Kind: trace.KindSettle, Outcome: model.Outcome{CostUSD: 1}}) // blow the budget
	if got := pol.Decide(task, env, Exact{}); got != model.PlaceEdge {
		t.Fatalf("exhausted budget placed at %v, want edge fallback", got)
	}
	if b.Blocked() != 1 {
		t.Fatalf("Blocked = %d", b.Blocked())
	}
	// Without edge or VM the fallback is local.
	env.Edge, env.EdgePath, env.VM = nil, nil, nil
	if got := pol.Decide(task, env, Exact{}); got != model.PlaceLocal {
		t.Fatalf("fallback without free capacity = %v", got)
	}
}

func TestBudgetedSchedulerEndToEnd(t *testing.T) {
	env := testEnv(t)
	env.Edge, env.EdgePath, env.VM = nil, nil, nil
	b, err := NewBudget(env.Eng, 0.0002) // roughly one heavy task's bill
	if err != nil {
		t.Fatal(err)
	}
	pol := &BudgetedPolicy{Inner: CloudAll{}, Budget: b}
	s, err := New(env, pol, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	env.Events.Subscribe(b)
	for i := 0; i < 6; i++ {
		task := heavyTask(model.TaskID(i + 1))
		task.Cycles = 20e9
		env.Eng.At(sim.Time(i*200), func() { s.Submit(task) })
	}
	env.Eng.Run()
	st := s.Stats()
	if st.ByPlacement[model.PlaceFunction] == 0 {
		t.Fatal("no task ran on serverless before the budget hit")
	}
	if st.ByPlacement[model.PlaceLocal] == 0 {
		t.Fatal("no task fell back to local after exhaustion")
	}
	if st.Failed != 0 {
		t.Fatalf("Failed = %d", st.Failed)
	}
}
