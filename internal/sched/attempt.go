package sched

import (
	"math"

	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/sim"
)

// AttemptPool is the free list of one engine's remote-attempt records:
// one per System, one per Fleet and one per shard of a ShardedFleet,
// reached as Env.Attempts by every UE on the engine. A record takes its
// scheduler when it is drawn, so one UE reuses another's, and the pool
// holds no more records than the engine ever had in flight at once. Like
// everything on an Engine, a pool is single-threaded: records are per
// engine, never across shards.
type AttemptPool struct {
	free sim.FreeList[*RemoteAttempt]
}

// get draws a record for s, building one with its transfer callbacks
// bound once when none is spare.
func (p *AttemptPool) get(s *Scheduler) *RemoteAttempt {
	a := p.free.Get()
	if a == nil {
		a = &RemoteAttempt{}
		a.uplinkFn, a.downlinkFn = a.uplink, a.downlink
	}
	a.s = s
	return a
}

// release clears a finished record, keeping its bound callbacks and its
// backend's hop, and puts it back for the next attempt on the engine. In
// a taskpoison build (sim.Poison) it poisons the record instead and never
// reuses it: with no scheduler, no callbacks and no hop, a late backend
// reply or a zombie continuation that reaches it panics, and a read of
// its prediction or outcome sees NaN.
func (p *AttemptPool) release(a *RemoteAttempt) {
	if sim.Poison {
		nan := math.NaN()
		*a = RemoteAttempt{placement: -1, started: -1, predicted: nan, up: -1, down: -1, energy: nan,
			rep: model.ExecReport{Start: -1, End: -1, CostUSD: nan}}
		return
	}
	*a = RemoteAttempt{Hop: a.Hop, uplinkFn: a.uplinkFn, downlinkFn: a.downlinkFn,
		execFn: a.execFn, resumeFn: a.resumeFn}
	p.free.Put(a)
}

// RemoteAttempt is one remote attempt in flight: uplink, execution,
// downlink. A RemoteBackends reads the task, placement and prediction
// off it and hands the report back through Resume.
type RemoteAttempt struct {
	s         *Scheduler
	task      *model.Task
	placement model.Placement
	started   sim.Time
	exec      model.Executor // nil: execution goes through env.Remote
	predicted float64
	path      *network.Path
	done      func(model.Outcome)

	// What the attempt has measured so far; finish builds its outcome.
	up, down sim.Duration
	energy   float64 // radio energy, mJ
	rep      model.ExecReport

	// Hop is the RemoteBackends' own continuation for the record. It
	// outlives the attempt, so a backend that binds it on first sight of
	// a record builds nothing on later calls. Records are shared by every
	// UE on the engine, so every backend on one engine binds it the same
	// way.
	Hop func()

	// The record's callbacks, each bound on first use: an attempt either
	// executes on this engine (execFn) or through a RemoteBackends
	// (resumeFn), and a record serves one kind in practice.
	uplinkFn, downlinkFn func(network.Report)
	execFn               func(model.ExecReport)
	resumeFn             func()
	sim.Link[*RemoteAttempt]
}

func (a *RemoteAttempt) uplink(up network.Report) {
	a.up = up.Duration()
	a.energy += a.s.env.Device.RadioEnergyMilliJ(up.Duration(), true)
	if a.exec == nil {
		a.s.env.Remote.Execute(a)
		return
	}
	if a.execFn == nil {
		a.execFn = a.executed
	}
	a.exec.Execute(a.task, a.execFn)
}

func (a *RemoteAttempt) executed(rep model.ExecReport) {
	a.rep = rep
	if rep.Err != nil {
		a.finish()
		return
	}
	a.path.Transfer(a.task.OutputBytes, network.Downlink, a.downlinkFn)
}

// resume continues the attempt with the report Resume stored.
func (a *RemoteAttempt) resume() { a.executed(a.rep) }

func (a *RemoteAttempt) downlink(down network.Report) {
	a.down = down.Duration()
	a.energy += a.s.env.Device.RadioEnergyMilliJ(down.Duration(), false)
	a.finish()
}

// finish builds the attempt's outcome and returns the record to its pool
// before calling done, which may start the next attempt on the same
// record. The attempt failed if its execution did; only then did it skip
// the downlink.
func (a *RemoteAttempt) finish() {
	o := model.Outcome{Task: a.task, Placement: a.placement, Started: a.started,
		Finished: a.s.env.Eng.Now(), UplinkTime: a.up, DownlinkTime: a.down,
		Exec: a.rep, CostUSD: a.rep.CostUSD, EnergyMilliJ: a.energy, Failed: a.rep.Err != nil}
	done := a.done
	a.s.env.Attempts.release(a)
	done(o)
}

// Task returns the task the attempt carries.
func (a *RemoteAttempt) Task() *model.Task { return a.task }

// Placement returns where the attempt executes.
func (a *RemoteAttempt) Placement() model.Placement { return a.placement }

// Predicted returns the scheduler's demand estimate, in cycles, taken
// when the attempt was dispatched.
func (a *RemoteAttempt) Predicted() float64 { return a.predicted }

// Resume stores the execution report and returns the continuation that
// carries the attempt on from it: the backend runs it on the record's
// engine. The continuation is bound once per record, so Resume allocates
// nothing. Resume panics on a record that went back to its pool: a
// reply that arrives after its attempt finished.
func (a *RemoteAttempt) Resume(rep model.ExecReport) func() {
	if a.s == nil {
		panic("sched: Resume on a released remote attempt")
	}
	a.rep = rep
	if a.resumeFn == nil {
		a.resumeFn = a.resume
	}
	return a.resumeFn
}
