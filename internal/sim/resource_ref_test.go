package sim

import (
	"fmt"
	"strings"
	"testing"
)

// refResource is the closure-based Resource that the pooled one replaced,
// kept verbatim as the reference the differential tests compare against:
// one heap-allocated request per Acquire, a FIFO of pointers popped by
// reslicing, and one fresh closure per grant.
type refResource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiting  []*refRequest

	busyTime   Duration
	lastChange Time
	grants     uint64
	queuedTime Duration
}

type refRequest struct {
	fn        func()
	enqueued  Time
	cancelled bool
}

type refPending struct {
	r   *refResource
	req *refRequest
}

func (p *refPending) Cancel() {
	if p == nil || p.req == nil {
		return
	}
	p.req.cancelled = true
}

func newRefResource(eng *Engine, name string, capacity int) *refResource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q with capacity %d", name, capacity))
	}
	return &refResource{eng: eng, name: name, capacity: capacity}
}

func (r *refResource) InUse() int { return r.inUse }

func (r *refResource) QueueLen() int {
	n := 0
	for _, req := range r.waiting {
		if !req.cancelled {
			n++
		}
	}
	return n
}

func (r *refResource) Acquire(fn func()) *refPending {
	if fn == nil {
		panic("sim: Acquire with nil callback")
	}
	req := &refRequest{fn: fn, enqueued: r.eng.Now()}
	if r.inUse < r.capacity {
		r.grant(req)
		return &refPending{r: r, req: req}
	}
	r.waiting = append(r.waiting, req)
	return &refPending{r: r, req: req}
}

func (r *refResource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: Release on idle resource %q", r.name))
	}
	r.accumulate()
	r.inUse--
	for len(r.waiting) > 0 {
		req := r.waiting[0]
		r.waiting = r.waiting[1:]
		if req.cancelled {
			continue
		}
		r.queuedTime += r.eng.Now().Sub(req.enqueued)
		r.grant(req)
		return
	}
}

func (r *refResource) grant(req *refRequest) {
	r.accumulate()
	r.inUse++
	r.grants++
	r.eng.After(0, func() {
		if req.cancelled {
			r.Release()
			return
		}
		req.fn()
	})
}

func (r *refResource) accumulate() {
	now := r.eng.Now()
	r.busyTime += Duration(float64(r.inUse) * float64(now.Sub(r.lastChange)))
	r.lastChange = now
}

func (r *refResource) Utilization() float64 {
	r.accumulate()
	elapsed := float64(r.eng.Now())
	if elapsed == 0 {
		return 0
	}
	return float64(r.busyTime) / (elapsed * float64(r.capacity))
}

func (r *refResource) Grants() uint64 { return r.grants }

func (r *refResource) MeanQueueWait() Duration {
	if r.grants == 0 {
		return 0
	}
	return Duration(float64(r.queuedTime) / float64(r.grants))
}

// resourceModel is what the differential harness drives: the pooled
// Resource or the reference. The reference's cancellation is not driven:
// the pooled Resource has none.
type resourceModel struct {
	acquire       func(fn func())
	release       func()
	inUse         func() int
	queueLen      func() int
	utilization   func() float64
	meanQueueWait func() Duration
	grants        func() uint64
}

func pooledModel(e *Engine, capacity int) resourceModel {
	r := NewResource(e, "pooled", capacity)
	return resourceModel{
		acquire:       r.Acquire,
		release:       r.Release,
		inUse:         r.InUse,
		queueLen:      r.QueueLen,
		utilization:   r.Utilization,
		meanQueueWait: r.MeanQueueWait,
		grants:        r.Grants,
	}
}

func referenceModel(e *Engine, capacity int) resourceModel {
	r := newRefResource(e, "reference", capacity)
	return resourceModel{
		acquire:       func(fn func()) { r.Acquire(fn) },
		release:       r.Release,
		inUse:         r.InUse,
		queueLen:      r.QueueLen,
		utilization:   r.Utilization,
		meanQueueWait: r.MeanQueueWait,
		grants:        r.Grants,
	}
}

// resourceScript replays an operation script against one model and
// returns its log: every grant with its time, the queue length and units
// in use after every operation, and the final statistics with their exact
// bits. The first byte picks the capacity (1–4); each later pair of bytes
// is one acquire, run as an event after a delay of 0–3 time units from
// the previous one, that holds its unit for 0–7 time units before
// releasing it.
func resourceScript(data []byte, build func(*Engine, int) resourceModel) string {
	if len(data) == 0 {
		return ""
	}
	e := NewEngine()
	r := build(e, int(data[0]%4)+1)
	var log strings.Builder
	acquires := 0
	ops := data[1:]
	var step func()
	step = func() {
		if len(ops) < 2 {
			return
		}
		op, arg := ops[0], ops[1]
		ops = ops[2:]
		k, hold := acquires, Duration(arg%8)
		acquires++
		r.acquire(func() {
			fmt.Fprintf(&log, "grant %d at %v\n", k, e.Now())
			e.After(hold, r.release)
		})
		fmt.Fprintf(&log, "op at %v: queue %d in use %d\n", e.Now(), r.queueLen(), r.inUse())
		e.After(Duration(op%4), step)
	}
	e.After(0, step)
	e.Run()
	fmt.Fprintf(&log, "end %v: utilization %x mean wait %x grants %d queue %d in use %d\n",
		e.Now(), r.utilization(), float64(r.meanQueueWait()), r.grants(), r.queueLen(), r.inUse())
	return log.String()
}

// FuzzResourceMatchesReference replays random acquire and release
// scripts against the pooled Resource and the closure-based reference and
// requires identical grant order, grant times, queue lengths and
// statistics.
func FuzzResourceMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 5, 2, 0, 4, 1})
	f.Add([]byte{1, 0, 3, 0, 3, 3, 2, 0, 3, 6, 1, 2, 0})
	f.Add([]byte{3, 1, 7, 5, 1, 9, 2, 3, 0, 0, 0, 14, 4, 2, 1})
	f.Add([]byte{2, 4, 2, 4, 2, 4, 2, 4, 2, 2, 1, 6, 0, 12, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		want := resourceScript(data, referenceModel)
		if got := resourceScript(data, pooledModel); got != want {
			t.Fatalf("pooled Resource diverged from the reference\npooled:\n%s\nreference:\n%s", got, want)
		}
	})
}

// TestResourceMatchesReference runs the fuzz harness over deterministic
// pseudo-random scripts, so a plain go test covers long interleavings.
func TestResourceMatchesReference(t *testing.T) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 200; i++ {
		data := make([]byte, 1+2*(i%60+1))
		for j := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[j] = byte(x)
		}
		want := resourceScript(data, referenceModel)
		if got := resourceScript(data, pooledModel); got != want {
			t.Fatalf("script %d (% x): pooled Resource diverged from the reference\npooled:\n%s\nreference:\n%s",
				i, data, got, want)
		}
	}
}
