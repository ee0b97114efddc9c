//go:build go1.24

package cloudvm

import (
	"runtime"
	"testing"
	"weak"

	"offload/internal/model"
	"offload/internal/sim"
)

// TestDrainedQueueReleasesCallbacks queues a task behind a busy fleet
// with a completion callback that captures an object, drains the queue,
// and requires the object to become unreachable: a popped wait-queue slot
// must not keep the task's callback alive in the backing array.
func TestDrainedQueueReleasesCallbacks(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, fixedConfig())
	task := &model.Task{ID: 1, Cycles: 1e9}
	for i := 0; i < fixedConfig().Cores; i++ {
		f.Execute(task, func(model.ExecReport) {})
	}
	capturing := func(obj *[64]byte) func(model.ExecReport) {
		return func(model.ExecReport) { obj[0]++ }
	}
	captured := new([64]byte)
	ref := weak.Make(captured)
	f.Execute(&model.Task{ID: 2, Cycles: 1e9}, capturing(captured))
	captured = nil
	if f.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d, want the third task queued", f.QueueLen())
	}
	eng.Run()
	if f.QueueLen() != 0 || f.Executed() != 3 {
		t.Fatalf("queue %d, executed %d; want 0 and 3", f.QueueLen(), f.Executed())
	}
	runtime.GC()
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a drained task's callback is still reachable from the fleet")
	}
	runtime.KeepAlive(f)
}
