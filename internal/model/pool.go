package model

import (
	"math"

	"offload/internal/sim"
)

// TaskPool is the free list of one engine's tasks: the workload stream
// draws every task from it, and the scheduler releases a task back once
// it has settled (after the settle event and the task's own callback),
// so a warm run allocates no tasks. Like everything on an Engine, a pool
// is single-threaded: each engine, and so each shard, has its own.
//
// A pooled task is marked by its own address, so a copy made by value
// never counts as pooled and is never released: only the pointer the
// pool handed out goes back. A nil pool allocates every task and
// releases none.
type TaskPool struct {
	free sim.FreeList[*Task]
}

// FreeLink is the link a TaskPool threads a released task through: the
// task's owner field, which points at the next spare task (or is nil)
// and so never at the task itself, so a released task reads as not
// pooled. Only the pool uses it.
func (t *Task) FreeLink() **Task { return &t.owner }

// New returns a task holding t's fields, drawn from the pool.
func (p *TaskPool) New(t Task) *Task {
	var x *Task
	if p != nil {
		x = p.free.Get()
	}
	if x == nil {
		x = new(Task) // t itself must not escape, or every call allocates it
	}
	*x = t
	x.owner = nil
	if p != nil {
		x.owner = x
	}
	return x
}

// Release ends the life of a pooled task: anything read through t
// afterwards belongs to a later task. Tasks no pool handed out, copies
// of pooled tasks and nil are left alone, and a released task is no
// longer pooled, so a second Release of it does nothing.
func (p *TaskPool) Release(t *Task) {
	if p == nil || t == nil || t.owner != t {
		return
	}
	p.release(t)
}

// PoisonedTaskID is the ID a released task carries in a taskpoison
// build.
const PoisonedTaskID TaskID = 1 << 62

// release clears t and keeps it for the next New. In a taskpoison build
// (sim.Poison) it poisons t instead and never reuses it, so any read of a
// task after its release shows up in the results: a foreign ID, NaN
// demand and negative sizes fail validation, skew every sum and change
// every golden.
func (p *TaskPool) release(t *Task) {
	if sim.Poison {
		*t = Task{
			ID:          PoisonedTaskID,
			App:         "released",
			Component:   "released",
			InputBytes:  -1,
			OutputBytes: -1,
			Cycles:      math.NaN(),
			MemoryBytes: -1,

			ParallelFraction: math.NaN(),
			Deadline:         -1,
			Submitted:        -1,
			Priority:         math.MinInt,
		}
		return
	}
	*t = Task{}
	p.free.Put(t)
}
