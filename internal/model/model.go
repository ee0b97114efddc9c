// Package model defines the domain types shared by every subsystem of the
// offloading framework: tasks, execution reports, placements, and the
// Executor interface that all compute substrates (device, edge, serverless,
// VM) implement.
package model

import (
	"errors"
	"fmt"
	"math"

	"offload/internal/sim"
)

// ErrTransient marks infrastructure failures that are worth retrying: the
// task itself is fine, the substrate dropped it. Substrate-specific errors
// (crashed containers, dead edge servers, preempted VMs, attempt timeouts)
// wrap this sentinel so schedulers can classify them with Transient
// without importing every substrate package.
var ErrTransient = errors.New("transient infrastructure failure")

// Transient reports whether err is a retryable infrastructure failure.
func Transient(err error) bool { return errors.Is(err, ErrTransient) }

// TaskID uniquely identifies a task within one simulation run.
type TaskID uint64

// Placement says where a task's computation ran.
type Placement int

// Placements, in increasing distance from the user.
const (
	PlaceUnknown  Placement = iota
	PlaceLocal              // on the user equipment itself
	PlaceEdge               // on a nearby edge server
	PlaceFunction           // on cloud serverless (FaaS)
	PlaceVM                 // on an always-on cloud VM
)

var placementNames = map[Placement]string{
	PlaceUnknown:  "unknown",
	PlaceLocal:    "local",
	PlaceEdge:     "edge",
	PlaceFunction: "function",
	PlaceVM:       "vm",
}

// String returns the lower-case placement name.
func (p Placement) String() string {
	if s, ok := placementNames[p]; ok {
		return s
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

// AllPlacements lists the concrete placements in canonical order.
func AllPlacements() []Placement {
	return []Placement{PlaceLocal, PlaceEdge, PlaceFunction, PlaceVM}
}

// Byte-size helpers.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// MHz expresses clock rates; 1 MHz = 1e6 cycles per second.
const MHz = 1e6

// GHz expresses clock rates; 1 GHz = 1e9 cycles per second.
const GHz = 1e9

// Task is one unit of offloadable work: an invocation of an application
// component on some input.
type Task struct {
	ID        TaskID
	App       string // application template name
	Component string // call-graph component, if the app is partitioned

	InputBytes  int64 // bytes that must reach the execution site
	OutputBytes int64 // bytes that must return to the device

	Cycles      float64 // true computational demand, CPU cycles
	MemoryBytes int64   // working-set size

	// ParallelFraction is the Amdahl-parallelisable fraction of the work in
	// [0, 1]. Substrates whose CPU allocation exceeds one core (for example
	// large serverless memory sizes) can only speed up this fraction.
	ParallelFraction float64

	// Deadline is the soft completion budget measured from Submitted.
	// Zero means "no deadline" (fully delay tolerant).
	Deadline  sim.Duration
	Submitted sim.Time

	// Priority classes the task for degraded-mode scheduling: negative is
	// load-sheddable background work, zero (the default) is normal, and
	// positive is critical work that must keep running even if that means
	// executing locally. Healthy systems ignore it.
	Priority int
}

// Priority classes for Task.Priority.
const (
	PriorityLow      = -1
	PriorityNormal   = 0
	PriorityCritical = 1
)

// Validate reports whether the task is internally consistent.
func (t *Task) Validate() error {
	switch {
	case t == nil:
		return fmt.Errorf("model: nil task")
	case math.IsNaN(t.Cycles) || math.IsInf(t.Cycles, 0):
		return fmt.Errorf("model: task %d has non-finite cycles %g", t.ID, t.Cycles)
	case math.IsNaN(float64(t.Deadline)) || math.IsInf(float64(t.Deadline), 0):
		return fmt.Errorf("model: task %d has non-finite deadline %g", t.ID, float64(t.Deadline))
	case t.Cycles < 0:
		return fmt.Errorf("model: task %d has negative cycles %g", t.ID, t.Cycles)
	case t.InputBytes < 0 || t.OutputBytes < 0:
		return fmt.Errorf("model: task %d has negative transfer sizes", t.ID)
	case t.MemoryBytes < 0:
		return fmt.Errorf("model: task %d has negative memory", t.ID)
	case t.Deadline < 0:
		return fmt.Errorf("model: task %d has negative deadline", t.ID)
	case !(t.ParallelFraction >= 0 && t.ParallelFraction <= 1): // NaN fails both
		return fmt.Errorf("model: task %d has parallel fraction %g outside [0,1]",
			t.ID, t.ParallelFraction)
	}
	return nil
}

// HasDeadline reports whether the task carries a soft deadline.
func (t *Task) HasDeadline() bool { return t.Deadline > 0 }

// ExecReport describes one task execution on one substrate. Transfers to
// and from the substrate are reported separately by the scheduler.
type ExecReport struct {
	Start sim.Time // when the execution was accepted by the substrate
	End   sim.Time // when computation (and billing) finished

	QueueWait sim.Duration // time spent waiting for a free unit
	ColdStart sim.Duration // environment-provisioning time (serverless)

	CostUSD float64 // money billed for this execution
	Err     error   // non-nil if the substrate rejected or aborted the task
}

// Duration returns the total wall time the execution took on the substrate.
func (r ExecReport) Duration() sim.Duration { return r.End.Sub(r.Start) }

// Executor is a compute substrate that can run tasks. Execute is
// asynchronous: done is invoked from the simulation loop when the task
// finishes (successfully or not). Implementations must invoke done exactly
// once per submitted task.
type Executor interface {
	// Name identifies the substrate in traces and metrics.
	Name() string
	// Placement reports which placement class this substrate represents.
	Placement() Placement
	// Execute runs the task and reports the outcome through done.
	Execute(task *Task, done func(ExecReport))
}

// Outcome is the scheduler's end-to-end record for a task: transfers,
// execution, money and energy.
type Outcome struct {
	Task      *Task
	Placement Placement

	Started  sim.Time // submission time
	Finished sim.Time // when results were back on the device

	UplinkTime   sim.Duration
	DownlinkTime sim.Duration
	Exec         ExecReport

	CostUSD      float64 // total money spent (execution + transfer)
	EnergyMilliJ float64 // device-side energy (compute or radio)

	// Attempts counts dispatches including retries; 0 means the scheduler
	// did not track attempts.
	Attempts int

	Failed bool
}

// CompletionTime returns the end-to-end latency of the task.
func (o Outcome) CompletionTime() sim.Duration { return o.Finished.Sub(o.Started) }

// MissedDeadline reports whether the task had a deadline and finished
// after it.
func (o Outcome) MissedDeadline() bool {
	return o.Task != nil && o.Task.HasDeadline() &&
		o.CompletionTime() > o.Task.Deadline
}
