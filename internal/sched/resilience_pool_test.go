package sched

import (
	"testing"

	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sim"
)

// step is one scripted remote execution: how long it runs and how it ends.
type step struct {
	d   sim.Duration
	err error
}

// scriptedBackend executes remote attempts on the scheduler's engine with
// durations and errors taken from a script, one step per Execute call,
// cycling. It logs when the first calls arrived. Pending executions sit in
// fixed slots whose callbacks are bound once, so the backend allocates
// nothing and an allocation test sees only the scheduler.
type scriptedBackend struct {
	eng    *sim.Engine
	script []step
	calls  int
	at     [16]sim.Time // arrival time of the first len(at) calls
	slots  [4]pendingExec
}

type pendingExec struct {
	b      *scriptedBackend
	err    error
	start  sim.Time
	a      *RemoteAttempt
	fireFn func()
}

func newScriptedBackend(eng *sim.Engine, script ...step) *scriptedBackend {
	b := &scriptedBackend{eng: eng, script: script}
	for i := range b.slots {
		p := &b.slots[i]
		p.b, p.fireFn = b, p.fire
	}
	return b
}

func (b *scriptedBackend) Execute(a *RemoteAttempt) {
	st := b.script[b.calls%len(b.script)]
	if b.calls < len(b.at) {
		b.at[b.calls] = b.eng.Now()
	}
	b.calls++
	for i := range b.slots {
		p := &b.slots[i]
		if p.a == nil {
			p.err, p.start, p.a = st.err, b.eng.Now(), a
			b.eng.After(st.d, p.fireFn)
			return
		}
	}
	panic("scriptedBackend: more executions in flight than slots")
}

func (p *pendingExec) fire() {
	a := p.a
	p.a = nil
	a.Resume(model.ExecReport{Start: p.start, End: p.b.eng.Now(), CostUSD: 1e-6, Err: p.err})()
}

// resilientRig is a scheduler with the resilience layer on, dispatching
// to the edge placement, whose execution the scripted backend plays.
type resilientRig struct {
	eng  *sim.Engine
	s    *Scheduler
	b    *scriptedBackend
	task *model.Task
}

func newResilientRig(t testing.TB, res Resilience, retries int, script ...step) *resilientRig {
	t.Helper()
	eng := sim.NewEngine()
	b := newScriptedBackend(eng, script...)
	env := &Env{
		Eng:    eng,
		Device: device.New(eng, device.Laptop()),
		Edge: edge.New(eng, edge.Config{
			Name: "edge", Servers: 1, Cores: 1, CPUHz: 1e9, MemoryPerServer: model.GB,
		}),
		EdgePath: network.New(eng, rng.New(1), network.Config{
			Name: "lan", OneWayDelay: 0.001, UplinkBps: 1e9, DownlinkBps: 1e9,
		}),
		Remote: b,
	}
	s, err := New(env, EdgeAll{}, nil, WithResilience(res),
		WithRetries(RetryPolicy{MaxAttempts: retries, Backoff: 1}))
	if err != nil {
		t.Fatal(err)
	}
	task := &model.Task{ID: 1, App: "pool", InputBytes: 1 << 10, OutputBytes: 1 << 10, Cycles: 1e9}
	return &resilientRig{eng: eng, s: s, b: b, task: task}
}

// cycle dispatches the rig's task and runs until it has settled and
// every attempt and timer has drained.
func (r *resilientRig) cycle() {
	r.s.Dispatch(r.task, model.PlaceEdge)
	r.eng.Run()
}

// The record-exercising cycles: each consumes its whole script once.
var resilientCycles = []struct {
	name    string
	res     Resilience
	retries int
	script  []step
	// What one cycle must count, to show the path really ran.
	hedges, hedgeWins, timeouts, retried uint64
}{
	{"win", Resilience{AttemptTimeout: 100, HedgeDelay: 50}, 1,
		[]step{{d: 1}}, 0, 0, 0, 0},
	{"hedge win", Resilience{AttemptTimeout: 100, HedgeDelay: 2}, 1,
		[]step{{d: 10}, {d: 1}}, 1, 1, 0, 0},
	{"losing hedge", Resilience{AttemptTimeout: 100, HedgeDelay: 2}, 1,
		[]step{{d: 3}, {d: 10}}, 1, 0, 0, 0},
	{"timeout and zombie", Resilience{AttemptTimeout: 5}, 3,
		[]step{{d: 10}, {d: 1}}, 0, 0, 1, 1},
	{"retry", Resilience{AttemptTimeout: 100}, 3,
		[]step{{d: 1, err: model.ErrTransient}, {d: 1}}, 0, 0, 0, 1},
}

// TestSettledRecordReusedByHookSubmission settles task A, whose settle
// subscriber at once dispatches task B. B reuses A's records, and A's
// armed hedge timer and attempt timeout were cancelled before they went
// back: B must hedge on its own schedule and must not be timed out by A's
// timer.
func TestSettledRecordReusedByHookSubmission(t *testing.T) {
	// A wins at about 1 s with its hedge armed for 2 s and its timeout for
	// 5 s; B runs 4.5 s, past both of A's deadlines, within its own.
	r := newResilientRig(t, Resilience{AttemptTimeout: 5, HedgeDelay: 2}, 1,
		step{d: 1}, step{d: 4.5}, step{d: 10})
	b := &model.Task{ID: 2, App: "pool", InputBytes: 1 << 10, OutputBytes: 1 << 10, Cycles: 1e9}
	var settledA sim.Time
	spare := -1
	onSettle(r.s, func(o model.Outcome) {
		if o.Task.ID == 1 {
			settledA = r.eng.Now()
			spare = r.s.freeTasks.Len()
			r.s.Dispatch(b, model.PlaceEdge)
		}
	})
	r.cycle()
	if spare != 1 {
		t.Fatalf("%d task records spare when A's subscriber ran, want A's own", spare)
	}
	st := r.s.Stats()
	if st.Completed != 2 || st.Timeouts != 0 {
		t.Fatalf("completed %d timeouts %d: A's attempt timeout reached B", st.Completed, st.Timeouts)
	}
	// B's hedge is its third call, launched HedgeDelay after B started.
	if r.b.calls != 3 || st.Hedges != 1 {
		t.Fatalf("%d calls, %d hedges; want B alone to hedge once", r.b.calls, st.Hedges)
	}
	if got, want := r.b.at[2], settledA+2; got < want {
		t.Fatalf("B's hedge launched at %v, before its own hedge time %v: A's hedge timer fired", got, want)
	}
}

// TestStaleRetryTimerKeepsRecord arms two backoff timers for one task (the
// primary and the hedge both fail transiently) and lets it settle between
// them. Its record must stay off the free list until the second timer has
// fired: a task the settle subscriber submits gets a fresh record, and
// the stale timer does not launch an attempt for it.
func TestStaleRetryTimerKeepsRecord(t *testing.T) {
	// The primary fails at 3 s (first retry at 4 s); the hedge, launched at
	// 2 s, fails at 3.5 s (second retry at 5.5 s); the first retry wins at
	// 4.5 s. B then runs 1.5 s, straddling the stale timer, too short to
	// hedge.
	r := newResilientRig(t, Resilience{HedgeDelay: 2}, 4,
		step{d: 3, err: model.ErrTransient}, step{d: 1.5, err: model.ErrTransient},
		step{d: 0.5}, step{d: 1.5})
	b := &model.Task{ID: 2, App: "pool", InputBytes: 1 << 10, OutputBytes: 1 << 10, Cycles: 1e9}
	spare := -1
	onSettle(r.s, func(o model.Outcome) {
		if o.Task.ID == 1 {
			spare = r.s.freeTasks.Len()
			r.s.Dispatch(b, model.PlaceEdge)
		}
	})
	r.cycle()
	if spare != 0 {
		t.Fatalf("A's record was on the free list at settlement (%d spare) with a retry timer armed", spare)
	}
	st := r.s.Stats()
	if st.Completed != 2 || st.Retries != 2 || r.b.calls != 4 {
		t.Fatalf("completed %d retries %d calls %d, want 2 2 4: the stale timer launched an attempt",
			st.Completed, st.Retries, r.b.calls)
	}
	if n := r.s.freeTasks.Len(); n != 2 {
		t.Fatalf("%d task records on the free list after both settled, want 2", n)
	}
}

// BenchmarkResilientAttempt measures one task through the resilience
// layer on a warm scheduler: an attempt with its timeout and hedge timer
// armed wins, the hedge timer is cancelled and both records go back.
func BenchmarkResilientAttempt(b *testing.B) {
	r := newResilientRig(b, Resilience{AttemptTimeout: 100, HedgeDelay: 50}, 1, step{d: 1})
	r.cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.cycle()
	}
}
