package sim

import "fmt"

// Resource models a pool of identical servers with a FIFO wait queue: a
// device CPU is a Resource with capacity 1, an edge cluster with eight
// worker cores is a Resource with capacity 8.
//
// Callers request a unit with Acquire and get a callback when one is
// granted; they must call Release exactly once per grant. A request
// cannot be withdrawn: every Acquire is granted in FIFO order.
//
// Requests are held by value in two FIFOs the resource owns: waiting
// requests queue for a unit, granted ones wait for their zero-delay
// dispatch event. Both reuse their slots, so a steady-state Acquire and
// Release allocate nothing, and a popped slot is cleared so a drained
// queue pins no callback.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiting  fifo
	granted  fifo
	// dispatchFn is r.dispatch, bound on the first grant so that building
	// a resource costs no more than it did before pooling.
	dispatchFn func()

	// Aggregate statistics, maintained incrementally so that utilisation
	// can be computed without a trace.
	busyTime   Duration
	lastChange Time
	grants     uint64
	queuedTime Duration
}

// request is one Acquire, held by value in a fifo: 16 bytes.
type request struct {
	fn       func()
	enqueued Time
}

// NewResource returns a resource with the given capacity attached to eng.
// It panics if capacity is not positive.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q with capacity %d", name, capacity))
	}
	return &Resource{eng: eng, name: name, capacity: capacity}
}

// Name returns the resource's name, used in traces and error messages.
func (r *Resource) Name() string { return r.name }

// Capacity returns the number of units in the pool.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently granted.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of requests waiting for a unit.
func (r *Resource) QueueLen() int { return r.waiting.n }

// Acquire requests one unit. If a unit is free, fn runs via a zero-delay
// event (so the caller's stack unwinds first); otherwise the request
// queues FIFO.
func (r *Resource) Acquire(fn func()) {
	if fn == nil {
		panic("sim: Acquire with nil callback")
	}
	req := request{fn: fn, enqueued: r.eng.Now()}
	if r.inUse < r.capacity {
		r.grant(req)
	} else {
		r.waiting.push(req)
	}
}

// Release returns one unit to the pool and grants it to the head of the
// wait queue, if any. It panics if no units are in use.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: Release on idle resource %q", r.name))
	}
	r.accumulate()
	r.inUse--
	if r.waiting.n > 0 {
		req := r.waiting.pop()
		r.queuedTime += r.eng.Now().Sub(req.enqueued)
		r.grant(req)
	}
}

func (r *Resource) grant(req request) {
	r.accumulate()
	r.inUse++
	r.grants++
	r.granted.push(req)
	if r.dispatchFn == nil {
		r.dispatchFn = r.dispatch
	}
	r.eng.After(0, r.dispatchFn)
}

// dispatch runs the oldest granted request. Every grant schedules exactly
// one dispatch with After(0), at a time that never decreases and with a
// rising sequence number, so dispatches fire in grant order and the front
// of the granted FIFO is always the grant this event was scheduled for.
func (r *Resource) dispatch() { r.granted.pop().fn() }

func (r *Resource) accumulate() {
	now := r.eng.Now()
	r.busyTime += Duration(float64(r.inUse) * float64(now.Sub(r.lastChange)))
	r.lastChange = now
}

// Utilization returns the time-averaged fraction of capacity in use since
// the start of the simulation. It returns 0 before any time has passed.
func (r *Resource) Utilization() float64 {
	r.accumulate()
	elapsed := float64(r.eng.Now())
	if elapsed == 0 {
		return 0
	}
	return float64(r.busyTime) / (elapsed * float64(r.capacity))
}

// Grants returns how many requests have been granted.
func (r *Resource) Grants() uint64 { return r.grants }

// MeanQueueWait returns the average time granted requests spent queued.
func (r *Resource) MeanQueueWait() Duration {
	if r.grants == 0 {
		return 0
	}
	return Duration(float64(r.queuedTime) / float64(r.grants))
}

// fifo is a ring buffer of requests. Its backing array doubles when full
// and is never shrunk, so a queue that has reached its high-water mark
// pushes and pops without allocating.
type fifo struct {
	buf  []request // len is zero or a power of two
	head int
	n    int
}

func (q *fifo) push(req request) {
	if q.n == len(q.buf) {
		grown := make([]request, max(2*len(q.buf), 4))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = req
	q.n++
}

// pop removes and returns the front request, clearing its slot so the
// buffer no longer references the callback.
func (q *fifo) pop() request {
	req := q.buf[q.head]
	q.buf[q.head] = request{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return req
}
