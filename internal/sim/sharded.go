package sim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedEngine runs one simulation across N shard engines plus a hub
// engine, synchronized by a conservative time barrier. Each shard owns a
// disjoint set of simulation entities (in this repository: UEs — their
// devices, network paths and schedulers); the hub owns every shared
// substrate (serverless platform, edge cluster, VM fleet). Time advances
// in lockstep epochs of a fixed interval:
//
//	epoch e:
//	  phase A  every shard runs its events in (e·Δ, (e+1)·Δ] — shard
//	           phases may run in parallel on Run's workers, because
//	           shards never touch each other's state. Calls against
//	           hub-owned substrates are buffered via SendToHub, not
//	           executed.
//	  barrier  buffered shard→hub messages are sorted into the canonical
//	           (time, key, seq) order and injected into the hub's queue.
//	  phase B  the hub runs its events in (e·Δ, (e+1)·Δ] serially.
//	           Replies to shards (SendToShard) are buffered and delivered
//	           at the start of the next epoch's phase A, in hub order.
//
// Determinism at any shard count — including N=1 — follows from three
// properties. First, every result-affecting random stream is keyed to an
// entity (a UE), never to a shard, so partitioning cannot move draws
// between streams. Second, the canonical barrier order depends only on
// (send time, entity key, per-sender send order), all of which are
// independent of which shard an entity landed on. Third, shards read
// hub-owned state only while the hub is quiescent (phase A), so every
// shard observes the same barrier-frozen snapshot regardless of shard
// count or goroutine interleaving. See DESIGN.md for the full argument.
//
// The one semantic relaxation versus a single serial engine: a reply
// crossing hub→shard becomes visible at the next epoch boundary, so
// cross-engine feedback latency is quantized up to one interval. The
// relaxation is identical at every shard count.
type ShardedEngine struct {
	hub      *Engine
	shards   []*Engine
	interval Duration

	epoch   uint64 // index of the epoch currently (or next) being run
	windows uint64 // epoch windows actually executed (idle epochs are skipped)

	outbox [][]hubMsg   // per-shard shard→hub buffers, filled in phase A
	outSeq []uint64     // per-shard send counters, monotone over the run
	inbox  [][]shardMsg // per-shard hub→shard buffers, filled in phase B
	merged []hubMsg     // barrier scratch: canonical sort happens here
}

// hubMsg is one buffered shard→hub submission.
type hubMsg struct {
	at    Time   // shard clock at send time
	key   uint64 // canonical entity key (shard-count-independent)
	seq   uint64 // per-shard send counter: orders same-(at,key) sends
	shard int    // sender; last-resort tiebreak, see cmpHubMsg
	fn    func()
}

// cmpHubMsg is the canonical barrier order: send time, then entity key,
// then send order. The sender tiebreak is unreachable while every key
// lives on one shard (one shard's seq is strictly monotone); it keeps the
// order total regardless.
func cmpHubMsg(a, b hubMsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.seq, b.seq); c != 0 {
		return c
	}
	return cmp.Compare(a.shard, b.shard)
}

// shardMsg is one buffered hub→shard reply, delivered in hub send order.
type shardMsg struct {
	fn func()
}

// NewSharded returns a sharded engine with n shard engines and the given
// barrier interval. It panics if n < 1 or interval <= 0.
func NewSharded(n int, interval Duration) *ShardedEngine {
	if n < 1 {
		panic(fmt.Sprintf("sim: NewSharded with %d shards", n))
	}
	if interval <= 0 {
		panic(fmt.Sprintf("sim: NewSharded with interval %v", interval))
	}
	se := &ShardedEngine{
		hub:      NewEngine(),
		shards:   make([]*Engine, n),
		interval: interval,
		outbox:   make([][]hubMsg, n),
		outSeq:   make([]uint64, n),
		inbox:    make([][]shardMsg, n),
	}
	for i := range se.shards {
		se.shards[i] = NewEngine()
	}
	return se
}

// Hub returns the engine that owns the shared substrates.
func (se *ShardedEngine) Hub() *Engine { return se.hub }

// Shard returns shard i's engine.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Epoch returns the index of the next epoch to run; after Run it is one
// past the last executed epoch. Idle-skipped epochs count, so this can
// be much larger than Windows.
func (se *ShardedEngine) Epoch() uint64 { return se.epoch }

// Windows returns how many epoch windows were actually executed; idle
// stretches the skip optimization jumped over are excluded.
func (se *ShardedEngine) Windows() uint64 { return se.windows }

// SendToHub buffers fn for execution on the hub engine at the sending
// shard's current time. Call it only from shard-side code during phase A.
// key must identify the owning entity (the UE index here) and an entity
// must live on exactly one shard: the barrier delivers buffered messages
// in (time, key, send order) — an order independent of the entity→shard
// assignment — before the hub runs the epoch's window.
func (se *ShardedEngine) SendToHub(shard int, key uint64, fn func()) {
	if fn == nil {
		panic("sim: SendToHub with nil callback")
	}
	se.outSeq[shard]++
	se.outbox[shard] = append(se.outbox[shard], hubMsg{
		at:    se.shards[shard].Now(),
		key:   key,
		seq:   se.outSeq[shard],
		shard: shard,
		fn:    fn,
	})
}

// SendToShard buffers fn for delivery to the shard at the start of the
// next epoch. Call it only from hub-side code during phase B; delivery
// preserves hub send order, and fn runs with the shard's clock at the
// epoch boundary (it may schedule further shard events).
func (se *ShardedEngine) SendToShard(shard int, fn func()) {
	if fn == nil {
		panic("sim: SendToShard with nil callback")
	}
	se.inbox[shard] = append(se.inbox[shard], shardMsg{fn: fn})
}

// epochEnd returns the closing boundary of the current epoch.
func (se *ShardedEngine) epochEnd() Time {
	return Time(float64(se.epoch+1) * float64(se.interval))
}

// anyMail reports whether any cross-engine message is waiting.
func (se *ShardedEngine) anyMail() bool {
	for _, b := range se.inbox {
		if len(b) > 0 {
			return true
		}
	}
	for _, b := range se.outbox {
		if len(b) > 0 {
			return true
		}
	}
	return false
}

// nextEventTime returns the earliest pending event across every engine,
// or +Inf when all queues are drained.
func (se *ShardedEngine) nextEventTime() Time {
	next := se.hub.NextEventTime()
	for _, s := range se.shards {
		if t := s.NextEventTime(); t < next {
			next = t
		}
	}
	return next
}

// Run drives the simulation until every engine's queue is drained and no
// cross-engine messages remain buffered. Epochs with no events anywhere
// are skipped in one jump, so sparse simulations don't pay per-epoch
// overhead for idle time; the skip decision depends only on the global
// earliest event, which is the same at every shard count.
//
// Phase A runs on min(shards, GOMAXPROCS) workers that live exactly as
// long as Run: the calling goroutine is worker 0 and the others are
// started on entry and joined before Run returns. If shard code panics,
// the window stops, every worker exits, and Run panics on the calling
// goroutine with a *ShardPanic.
func (se *ShardedEngine) Run() {
	w := se.startWorkers()
	defer w.stopAll()
	for {
		if !se.anyMail() {
			next := se.nextEventTime()
			if math.IsInf(float64(next), 1) {
				return
			}
			if k := se.epochOf(next); k > se.epoch {
				se.epoch = k
			}
		}
		end := se.epochEnd()
		w.runWindow(end)
		if p := w.fault.Load(); p != nil {
			panic(p)
		}
		se.flushToHub()
		se.hub.RunUntil(end)
		se.epoch++
		se.windows++
	}
}

// epochOf returns the epoch whose window (k·Δ, (k+1)·Δ] contains t.
func (se *ShardedEngine) epochOf(t Time) uint64 {
	k := float64(t) / float64(se.interval)
	if k <= 0 {
		return 0
	}
	if k >= math.MaxUint64/2 {
		// Events absurdly far in the future: advance epoch-by-epoch rather
		// than overflow the conversion.
		return se.epoch
	}
	e := uint64(k)
	// An event exactly on boundary e·Δ belongs to the window ending there.
	if float64(e) == k && e > 0 {
		e--
	}
	return e
}

// ShardPanic is the value Run panics with when shard code panicked during
// phase A: the shard's index, the original panic value and the stack of
// the goroutine the shard ran on, which the re-panic would otherwise lose.
type ShardPanic struct {
	Shard int
	Value any
	Stack []byte
}

// Error reports the shard, the panic value and the shard's stack.
func (p *ShardPanic) Error() string {
	return fmt.Sprintf("sim: shard %d panicked: %v\n%s", p.Shard, p.Value, p.Stack)
}

// spinBudget is how long an idle worker polls, yielding its P between
// polls, before it parks. A woken goroutine waits for its waker's P, so
// workers that parked every window ran phase A slower than one goroutine
// per shard per window. The budget covers the serial gap between windows
// (phase B plus the barrier) on fleet-flash at 2 vCPUs: ~40 µs at the
// median, ~450 µs at p99. A 50 µs budget parked in 30% of windows.
const spinBudget = 500 * time.Microsecond

// workers runs phase A for one Run (DESIGN.md, "Phase-A workers"). The
// Run goroutine publishes a window by writing end, storing pending and
// next, and bumping gen; workers claim shard indices with next.Add and
// read end only after a claim succeeds, so every claim happens after the
// publish. Each finished shard decrements pending, and the Run goroutine
// leaves the window once it reads zero, so the barrier and phase B
// happen after every shard's phase A.
type workers struct {
	se      *ShardedEngine
	end     Time          // closing boundary of the published window
	gen     atomic.Uint64 // bumped once per publish: a window or the stop
	next    atomic.Int64  // next shard index to claim in this window
	pending atomic.Int64  // shards of this window not yet finished
	stop    atomic.Bool   // set before the final publish: workers exit
	fault   atomic.Pointer[ShardPanic]
	park    []parker // one per worker; park[0] is the Run goroutine's
	exited  sync.WaitGroup
}

// parker lets one goroutine wait for a condition another makes true.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: unpark's send never blocks
}

// wait returns once ready reports true. The condition's writer must make
// it true before it calls unpark: wait stores parked before its last
// check and unpark loads parked after the write, so at least one of the
// two sees the other, and whichever clears parked settles who sends.
// A wake is only a hint: an unpark meant for an earlier condition can
// land in a later park (its sender was descheduled between making that
// condition true and unparking), so wait checks again after every wake.
func (p *parker) wait(ready func() bool) {
	if ready() {
		return
	}
	for start := time.Now(); time.Since(start) < spinBudget; {
		runtime.Gosched()
		if ready() {
			return
		}
	}
	for {
		p.parked.Store(true)
		if ready() && p.parked.CompareAndSwap(true, false) {
			return
		}
		<-p.wake
		if ready() {
			return
		}
	}
}

// unpark wakes p if it is parked.
func (p *parker) unpark() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}

// startWorkers starts Run's phase-A workers; the caller is worker 0.
func (se *ShardedEngine) startWorkers() *workers {
	n := min(len(se.shards), runtime.GOMAXPROCS(0))
	w := &workers{se: se, park: make([]parker, n)}
	for i := range w.park {
		w.park[i].wake = make(chan struct{}, 1)
	}
	w.exited.Add(n - 1)
	for i := 1; i < n; i++ {
		go w.loop(i)
	}
	return w
}

// loop is worker id's body: claim shards whenever a window is published,
// until the stop is.
func (w *workers) loop(id int) {
	defer w.exited.Done()
	var seen uint64 // the generation before the first publish
	for {
		w.park[id].wait(func() bool { return w.gen.Load() != seen })
		seen = w.gen.Load()
		if w.stop.Load() {
			return
		}
		w.claim()
	}
}

// runWindow publishes the window ending at end, claims shards alongside
// the other workers and returns when every shard has finished it.
func (w *workers) runWindow(end Time) {
	w.end = end
	w.pending.Store(int64(len(w.se.shards)))
	w.next.Store(0)
	w.publish()
	w.claim()
	w.park[0].wait(func() bool { return w.pending.Load() == 0 })
}

// claim runs unclaimed shards of the current window until none is left.
// The worker that finishes the window's last shard wakes the Run
// goroutine.
func (w *workers) claim() {
	n := int64(len(w.se.shards))
	for i := w.next.Add(1) - 1; i < n; i = w.next.Add(1) - 1 {
		w.runShard(int(i))
		if w.pending.Add(-1) == 0 {
			w.park[0].unpark()
		}
	}
}

// runShard runs shard i's window, turning a panic into the window's
// fault. Once a shard has panicked, shards not yet started skip the
// window.
func (w *workers) runShard(i int) {
	defer func() {
		if v := recover(); v != nil {
			w.fault.CompareAndSwap(nil, &ShardPanic{Shard: i, Value: v, Stack: debug.Stack()})
		}
	}()
	if w.fault.Load() == nil {
		w.se.runShard(i, w.end)
	}
}

// publish bumps gen and wakes the parked workers.
func (w *workers) publish() {
	w.gen.Add(1)
	for i := 1; i < len(w.park); i++ {
		w.park[i].unpark()
	}
}

// stopAll publishes the stop and waits until every worker has exited.
func (w *workers) stopAll() {
	w.stop.Store(true)
	w.publish()
	w.exited.Wait()
}

// runShard delivers shard i's buffered hub replies and runs its window up
// to end.
func (se *ShardedEngine) runShard(i int, end Time) {
	msgs := se.inbox[i]
	for _, m := range msgs {
		m.fn()
	}
	clear(msgs) // release delivered closures
	se.inbox[i] = msgs[:0]
	se.shards[i].RunUntil(end)
}

// flushToHub is the barrier: it merges every shard's outbox into the
// canonical (time, key, seq) order and injects the messages into the
// hub's queue. Injection order becomes hub heap order for same-instant
// events, so the canonical order is exactly the hub's execution order.
func (se *ShardedEngine) flushToHub() {
	merged := se.merged[:0]
	for i, box := range se.outbox {
		merged = append(merged, box...)
		clear(box) // release transferred closures
		se.outbox[i] = box[:0]
	}
	slices.SortFunc(merged, cmpHubMsg)
	for i := range merged {
		se.hub.At(merged[i].at, merged[i].fn)
	}
	clear(merged)
	se.merged = merged[:0]
}
