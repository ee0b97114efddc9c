//go:build go1.24

package sched

import (
	"runtime"
	"testing"
	"weak"

	"offload/internal/model"
)

// TestPooledRecordsReleaseSettledTask runs a task through a timeout, a
// zombie completion and a retry, then requires the task to become
// unreachable: the task and attempt records the scheduler keeps for reuse
// must not hold the settled task, or its outcome, alive.
func TestPooledRecordsReleaseSettledTask(t *testing.T) {
	r := newResilientRig(t, Resilience{AttemptTimeout: 5, HedgeDelay: 2}, 3,
		step{d: 10}, step{d: 8}, step{d: 1})
	task := &model.Task{ID: 7, App: "pool", InputBytes: 1 << 10, OutputBytes: 1 << 10, Cycles: 1e9}
	ref := weak.Make(task)
	r.s.Dispatch(task, model.PlaceEdge)
	task = nil
	r.eng.Run()
	st := r.s.Stats()
	if st.Completed != 1 || st.Timeouts == 0 || st.Hedges == 0 {
		t.Fatalf("completed %d timeouts %d hedges %d: the scenario did not run", st.Completed, st.Timeouts, st.Hedges)
	}
	if r.s.freeTasks.Len() == 0 || r.s.freeTries.Len() == 0 {
		t.Fatal("no records went back to the free lists")
	}
	runtime.GC()
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a settled task is still reachable from the scheduler's pooled records")
	}
	runtime.KeepAlive(r)
}
