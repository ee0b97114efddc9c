//go:build taskpoison

package model

import "math"

// PoisonedTaskID is the ID a released task carries in a taskpoison
// build.
const PoisonedTaskID TaskID = 1 << 62

// release, in a taskpoison build, poisons t and never reuses it, so any
// read of a task after its release shows up in the results: a foreign
// ID, NaN demand and negative sizes fail validation, skew every sum and
// change every golden.
func (p *TaskPool) release(t *Task) {
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
}
