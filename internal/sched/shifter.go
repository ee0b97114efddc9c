package sched

import (
	"fmt"

	"offload/internal/model"
	"offload/internal/sim"
)

// OffPeakShifter exploits delay tolerance against a diurnal price
// schedule: serverless-bound tasks with enough deadline slack are held
// until the platform's off-peak discount window opens. Tasks the policy
// sends elsewhere, tasks without slack, and platforms without a schedule
// dispatch immediately.
//
// This is the purest expression of the paper's thesis — a task that does
// not care *when* it completes should run when computation is cheapest.
type OffPeakShifter struct {
	sched *Scheduler

	// SafetyFactor derates the remaining slack when deciding whether the
	// task can afford to wait (default 0.8).
	SafetyFactor float64

	shifted   uint64
	immediate uint64
}

// NewOffPeakShifter wraps a scheduler. The environment must have a
// serverless pool.
func NewOffPeakShifter(s *Scheduler) (*OffPeakShifter, error) {
	if s == nil {
		return nil, fmt.Errorf("sched: shifter over nil scheduler")
	}
	if s.env.Functions == nil {
		return nil, fmt.Errorf("sched: shifter without a serverless pool")
	}
	return &OffPeakShifter{sched: s, SafetyFactor: 0.8}, nil
}

// Submit routes the task, delaying it when waiting for the discount
// window is affordable.
func (o *OffPeakShifter) Submit(task *model.Task) {
	env := o.sched.env
	now := env.Eng.Now()
	task.Submitted = now
	placement := o.sched.policy.Decide(task, env, o.sched.pred)
	if placement != model.PlaceFunction {
		o.immediate++
		o.sched.Dispatch(task, placement)
		return
	}
	price := env.Functions.Platform().Config().Price
	if !price.HasOffPeak() || price.InOffPeak(now) {
		o.immediate++
		o.sched.Dispatch(task, placement)
		return
	}
	start := price.NextOffPeakStart(now)
	wait := start.Sub(now)
	if !o.affordable(task, wait) {
		o.immediate++
		o.sched.Dispatch(task, placement)
		return
	}
	o.shifted++
	env.Eng.At(start, func() {
		o.sched.Dispatch(task, model.PlaceFunction)
	})
}

// affordable reports whether waiting still leaves room to finish within
// the task's deadline.
func (o *OffPeakShifter) affordable(task *model.Task, wait sim.Duration) bool {
	if !task.HasDeadline() {
		return true // fully delay tolerant
	}
	predTask := *task
	predTask.Cycles = o.sched.pred.PredictCycles(task)
	e := o.sched.env.Estimate(model.PlaceFunction, &predTask)
	if !e.OK {
		return false
	}
	needed := float64(wait) + e.Up + e.Exec + e.Down
	return needed <= float64(task.Deadline)*o.SafetyFactor
}

// Shifted returns how many tasks were delayed into the discount window.
func (o *OffPeakShifter) Shifted() uint64 { return o.shifted }

// Immediate returns how many tasks dispatched without waiting.
func (o *OffPeakShifter) Immediate() uint64 { return o.immediate }
