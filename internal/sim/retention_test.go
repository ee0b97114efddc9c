//go:build go1.24

package sim

import (
	"runtime"
	"testing"
	"weak"
)

// TestResourceDrainedQueueReleasesCallbacks queues a request whose
// callback captures an object, drains the queue, and requires the object
// to become unreachable: a popped wait-queue slot must not keep the
// callback, and everything it captures, alive in the backing array.
func TestResourceDrainedQueueReleasesCallbacks(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	r.Acquire(func() { e.After(1, r.Release) })
	holding := func(obj *[64]byte) func() {
		return func() {
			obj[0]++
			e.After(1, r.Release)
		}
	}
	captured := new([64]byte)
	ref := weak.Make(captured)
	r.Acquire(holding(captured))
	captured = nil
	e.Run()
	if r.QueueLen() != 0 || r.InUse() != 0 {
		t.Fatalf("queue not drained: queue %d, in use %d", r.QueueLen(), r.InUse())
	}
	runtime.GC()
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a drained request's callback is still reachable from the resource")
	}
	runtime.KeepAlive(r)
}
