package sim

import (
	"testing"
	"unsafe"
)

// holdFor acquires r, holds it for d, then releases.
func holdFor(e *Engine, r *Resource, d Duration, done func()) {
	r.Acquire(func() {
		e.After(d, func() {
			r.Release()
			if done != nil {
				done()
			}
		})
	})
}

func TestResourceSerializesSingleServer(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		holdFor(e, r, 10, func() { finish = append(finish, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30}
	if len(finish) != 3 {
		t.Fatalf("completions = %v", finish)
	}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("completions = %v, want %v", finish, want)
		}
	}
}

func TestResourceParallelism(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cluster", 3)
	var finish []Time
	for i := 0; i < 6; i++ {
		holdFor(e, r, 10, func() { finish = append(finish, e.Now()) })
	}
	e.Run()
	// Three run in [0,10], three in [10,20].
	if len(finish) != 6 {
		t.Fatalf("got %d completions", len(finish))
	}
	for i := 0; i < 3; i++ {
		if finish[i] != 10 {
			t.Fatalf("first wave completion %d at %v, want 10", i, finish[i])
		}
	}
	for i := 3; i < 6; i++ {
		if finish[i] != 20 {
			t.Fatalf("second wave completion %d at %v, want 20", i, finish[i])
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Acquire(func() {
			order = append(order, i)
			e.After(1, r.Release)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grants out of FIFO order: %v", order)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	holdFor(e, r, 10, nil)
	e.RunUntil(20)
	u := r.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("Utilization = %g, want ~0.5", u)
	}
}

func TestResourceMeanQueueWait(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	holdFor(e, r, 10, nil)
	holdFor(e, r, 10, nil) // waits 10
	e.Run()
	mqw := float64(r.MeanQueueWait())
	if mqw < 4.9 || mqw > 5.1 { // (0 + 10) / 2 grants
		t.Fatalf("MeanQueueWait = %g, want ~5", mqw)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release on idle resource did not panic")
		}
	}()
	r.Release()
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource(0) did not panic")
		}
	}()
	NewResource(NewEngine(), "bad", 0)
}

func TestQueueLenAndInUse(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 2)
	for i := 0; i < 5; i++ {
		holdFor(e, r, 10, nil)
	}
	e.RunUntil(1)
	if r.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", r.InUse())
	}
	if r.QueueLen() != 3 {
		t.Fatalf("QueueLen = %d, want 3", r.QueueLen())
	}
	e.Run()
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatalf("resource not drained: inUse=%d queue=%d", r.InUse(), r.QueueLen())
	}
}

// TestResourceSteadyStateAllocatesNothing holds Acquire, dispatch and
// Release to zero allocations once the FIFOs have reached their
// high-water mark, on both the immediate-grant and the queued path.
func TestResourceSteadyStateAllocatesNothing(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	fn := func() {}
	cycle := func() {
		r.Acquire(fn)
		r.Acquire(fn) // queues behind the first
		e.Step()
		r.Release()
		e.Step()
		r.Release()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Acquire/Release cycle allocates %v times, want 0", n)
	}
}

// TestRequestIs16Bytes pins a queued request to a callback and an enqueue
// time: every waiting Acquire costs one slot of this size.
func TestRequestIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(request{}); n != 16 {
		t.Fatalf("unsafe.Sizeof(request{}) = %d, want 16", n)
	}
}
