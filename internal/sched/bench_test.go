package sched

import (
	"testing"

	"offload/internal/device"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sim"
)

// stubExec is an executor that finishes every task one second after it
// starts, through a callback bound once, so the attempt path is all that
// allocates.
type stubExec struct {
	eng    *sim.Engine
	done   func(model.ExecReport)
	fireFn func()
}

func (e *stubExec) Name() string               { return "stub" }
func (e *stubExec) Placement() model.Placement { return model.PlaceEdge }

func (e *stubExec) Execute(_ *model.Task, done func(model.ExecReport)) {
	e.done = done
	e.eng.After(1, e.fireFn)
}

func (e *stubExec) fire() {
	e.done(model.ExecReport{Start: e.eng.Now() - 1, End: e.eng.Now(), CostUSD: 1e-6})
}

// remoteAttemptCycle returns one remote attempt — uplink over a
// serialised jittered radio, stub execution, downlink — run to
// completion on a warm scheduler.
func remoteAttemptCycle(t testing.TB) func() {
	eng := sim.NewEngine()
	env := &Env{
		Eng:    eng,
		Device: device.New(eng, device.Laptop()),
	}
	s, err := New(env, LocalOnly{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec := &stubExec{eng: eng}
	exec.fireFn = exec.fire
	path := network.New(eng, rng.New(1), network.WiFiCloud())
	task := &model.Task{ID: 1, InputBytes: 1 << 20, OutputBytes: 1 << 10, Cycles: 1e9}
	done := func(model.Outcome) {}
	return func() {
		s.runRemote(task, model.PlaceEdge, exec, 0, path, done)
		eng.Run()
	}
}

// BenchmarkRemoteAttempt measures one remote attempt through the
// scheduler with a stub executor: both transfers, both radio grants and
// the outcome assembly.
func BenchmarkRemoteAttempt(b *testing.B) {
	cycle := remoteAttemptCycle(b)
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
