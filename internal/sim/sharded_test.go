package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// topologyLog runs one synthetic multi-entity topology on a ShardedEngine
// with the given shard count and returns a canonical textual log: every
// entity's fire/reply history in entity order, then the hub's execution
// history. The topology depends only on (entities, seed), never on the
// shard count, so the returned string must be byte-identical for every
// shard count — that is the determinism contract under test.
//
// Each entity runs a chain of events driven by its own xorshift stream
// (keyed by entity index, not shard). Steps either fire locally, or
// round-trip through the hub: the hub logs the canonical arrival, models
// a service delay on its own engine, and replies; the entity resumes its
// chain when the reply is delivered at an epoch boundary.
func topologyLog(shards, entities int, seed uint64, interval Duration) string {
	se := NewSharded(shards, interval)
	logs := make([][]string, entities)
	var hubLog []string

	for k := 0; k < entities; k++ {
		k := k
		home := k % shards
		eng := se.Shard(home)
		state := seed ^ (uint64(k)+1)*0x9E3779B97F4A7C15
		next := func(n uint64) uint64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return state % n
		}
		steps := int(3 + next(5))
		var step func()
		step = func() {
			logs[k] = append(logs[k], fmt.Sprintf("e%d fire@%.6f", k, eng.Now()))
			if steps == 0 {
				return
			}
			steps--
			delay := Duration(0.05 + float64(next(100))/40)
			switch next(3) {
			case 0: // local hop
				eng.After(delay, step)
			default: // round-trip through the hub
				svc := Duration(0.01 + float64(next(50))/100)
				eng.After(delay, func() {
					logs[k] = append(logs[k], fmt.Sprintf("e%d send@%.6f", k, eng.Now()))
					se.SendToHub(home, uint64(k), func() {
						hub := se.Hub()
						hubLog = append(hubLog, fmt.Sprintf("hub e%d arrive@%.6f", k, hub.Now()))
						hub.After(svc, func() {
							hubLog = append(hubLog, fmt.Sprintf("hub e%d done@%.6f", k, hub.Now()))
							se.SendToShard(home, func() {
								logs[k] = append(logs[k], fmt.Sprintf("e%d reply@%.6f", k, eng.Now()))
								step()
							})
						})
					})
				})
			}
		}
		eng.At(Time(0.1+float64(k%13)*0.37), step)
	}

	se.Run()
	var b strings.Builder
	for k := range logs {
		for _, l := range logs[k] {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	for _, l := range hubLog {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestShardedDeterministicAcrossShardCounts is the core contract: the
// same topology produces byte-identical logs at 1, 2, 4 and 7 shards.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	for _, tc := range []struct {
		entities int
		seed     uint64
		interval Duration
	}{
		{1, 1, 0.5},
		{5, 2, 0.5},
		{23, 3, 0.25},
		{40, 4, 1.0},
	} {
		want := topologyLog(1, tc.entities, tc.seed, tc.interval)
		if want == "" {
			t.Fatalf("entities=%d: empty log", tc.entities)
		}
		for _, shards := range []int{2, 4, 7} {
			got := topologyLog(shards, tc.entities, tc.seed, tc.interval)
			if got != want {
				t.Fatalf("entities=%d seed=%d: %d-shard log differs from 1-shard log:\n--- 1 shard ---\n%s\n--- %d shards ---\n%s",
					tc.entities, tc.seed, shards, want, shards, got)
			}
		}
	}
}

// TestShardedHubOrderCanonical pins the barrier's delivery order: two
// entities on different shards sending at the same instant must reach
// the hub in key order, whatever the shard layout.
func TestShardedHubOrderCanonical(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		se := NewSharded(shards, 1)
		var order []int
		// Reverse entity order so a naive shard-order flush would deliver
		// 2 before 1 when they land on different shards.
		for _, k := range []int{2, 1, 0} {
			k := k
			home := k % shards
			se.Shard(home).At(0.5, func() {
				se.SendToHub(home, uint64(k), func() {
					order = append(order, k)
				})
			})
		}
		se.Run()
		if fmt.Sprint(order) != "[0 1 2]" {
			t.Fatalf("shards=%d: hub delivery order %v, want [0 1 2]", shards, order)
		}
	}
}

// TestShardedReplyQuantizedToBoundary pins the documented relaxation:
// a hub reply becomes visible on the shard at the next epoch boundary
// after the hub-side completion.
func TestShardedReplyQuantizedToBoundary(t *testing.T) {
	se := NewSharded(2, 1) // interval 1s
	var replyAt Time
	se.Shard(0).At(0.25, func() {
		se.SendToHub(0, 7, func() {
			se.Hub().After(0.5, func() { // completes at t=0.75, inside epoch 0
				se.SendToShard(0, func() {
					replyAt = se.Shard(0).Now()
				})
			})
		})
	})
	se.Run()
	if replyAt != 1 {
		t.Fatalf("reply delivered at t=%v, want the epoch boundary t=1", replyAt)
	}
}

// TestShardedIdleSkip proves sparse simulations don't pay per-epoch cost
// for dead time: one event far in the future still fires exactly, with
// epoch count proportional to busy epochs, not elapsed time.
func TestShardedIdleSkip(t *testing.T) {
	se := NewSharded(4, 0.5)
	var fired Time
	se.Shard(2).At(100000.25, func() { fired = se.Shard(2).Now() })
	se.Run()
	if fired != 100000.25 {
		t.Fatalf("event fired at %v, want 100000.25", fired)
	}
	if se.Windows() > 2 {
		t.Fatalf("idle skip did not engage: %d windows executed for one sparse event", se.Windows())
	}
	if se.Epoch() != 200001 {
		t.Fatalf("Epoch() = %d, want the absolute index 200001", se.Epoch())
	}
}

// TestShardedBoundaryEvent pins the window convention: an event exactly
// on an epoch boundary belongs to the window that closes there.
func TestShardedBoundaryEvent(t *testing.T) {
	se := NewSharded(2, 1)
	var hubAt Time
	se.Shard(0).At(1, func() { // exactly on the epoch-0 boundary
		se.SendToHub(0, 1, func() { hubAt = se.Hub().Now() })
	})
	se.Run()
	if hubAt != 1 {
		t.Fatalf("boundary event reached the hub at %v, want 1", hubAt)
	}
	if se.Epoch() != 1 {
		t.Fatalf("boundary event consumed %d epochs, want 1", se.Epoch())
	}
}

// TestShardedDrainsEverything: after Run returns, every engine is empty
// and no mail is buffered.
func TestShardedDrainsEverything(t *testing.T) {
	se := NewSharded(3, 0.5)
	// Per-entity completion flags: replies are delivered on shard
	// goroutines, so the test must not share a counter across shards.
	done := make([]bool, 9)
	for k := 0; k < 9; k++ {
		k := k
		home := k % 3
		se.Shard(home).At(Time(k)*0.3, func() {
			se.SendToHub(home, uint64(k), func() {
				se.SendToShard(home, func() { done[k] = true })
			})
		})
	}
	se.Run()
	for k, ok := range done {
		if !ok {
			t.Fatalf("round trip %d did not complete", k)
		}
	}
	if se.Hub().Pending() != 0 {
		t.Fatalf("hub still has %d pending events", se.Hub().Pending())
	}
	for i := 0; i < se.NumShards(); i++ {
		if se.Shard(i).Pending() != 0 {
			t.Fatalf("shard %d still has %d pending events", i, se.Shard(i).Pending())
		}
	}
	if se.anyMail() {
		t.Fatal("mail still buffered after Run")
	}
}

// settleGoroutines waits, briefly, for the goroutine count to fall back to
// want: a worker that has signalled its exit may still be unwinding when
// Run returns. It returns the last count seen.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestShardedRunLeavesNoGoroutines: Run's phase-A workers live exactly as
// long as Run, including a second Run on the same engine after more
// events are scheduled.
func TestShardedRunLeavesNoGoroutines(t *testing.T) {
	for _, shards := range []int{1, 2, 7} {
		se := NewSharded(shards, 0.5)
		fired := make([]int, shards)
		schedule := func(from Time) {
			for s := 0; s < shards; s++ {
				s := s
				eng := se.Shard(s)
				for k := 0; k < 5; k++ {
					eng.At(from+Time(k)*0.3, func() {
						fired[s]++
						se.SendToHub(s, uint64(s), func() {})
					})
				}
			}
		}
		before := runtime.NumGoroutine()
		schedule(0.1)
		se.Run()
		if n := settleGoroutines(before); n > before {
			t.Fatalf("shards=%d: %d goroutines after Run, %d before", shards, n, before)
		}
		schedule(se.Hub().Now() + 1)
		se.Run()
		if n := settleGoroutines(before); n > before {
			t.Fatalf("shards=%d: %d goroutines after the second Run, %d before", shards, n, before)
		}
		for s, n := range fired {
			if n != 10 {
				t.Fatalf("shards=%d: shard %d fired %d events, want 10", shards, s, n)
			}
		}
	}
}

// TestParkerIgnoresStaleUnpark: an unpark that arrives while the
// condition is still false — one left over from an earlier condition —
// does not end the wait; the wait returns only once the condition holds.
func TestParkerIgnoresStaleUnpark(t *testing.T) {
	var p parker
	p.wake = make(chan struct{}, 1)
	var cond atomic.Bool
	done := make(chan struct{})
	go func() {
		p.wait(cond.Load)
		close(done)
	}()
	waitParked := func() {
		for deadline := time.Now().Add(5 * time.Second); !p.parked.Load(); {
			if time.Now().After(deadline) {
				t.Fatal("waiter never parked")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for stale := 0; stale < 3; stale++ {
		waitParked()
		p.unpark()
		select {
		case <-done:
			t.Fatalf("wait returned after stale unpark %d with the condition false", stale)
		case <-time.After(20 * time.Millisecond):
		}
	}
	cond.Store(true)
	p.unpark()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wait did not return after the condition became true")
	}
}

// TestShardedPanicReachesCaller: a panic in shard code reaches Run's
// caller as a *ShardPanic naming the shard and carrying the original
// value, and every worker has exited by then.
func TestShardedPanicReachesCaller(t *testing.T) {
	boom := errors.New("boom")
	for _, shards := range []int{1, 2, 7} {
		se := NewSharded(shards, 0.5)
		bad := shards - 1
		for s := 0; s < shards; s++ {
			s := s
			eng := se.Shard(s)
			var tick func()
			tick = func() {
				if s == bad && eng.Now() > 2 {
					panic(boom)
				}
				if eng.Now() < 10 {
					eng.After(0.25, tick)
				}
			}
			eng.At(0.1, tick)
		}
		before := runtime.NumGoroutine()
		got := func() (v any) {
			defer func() { v = recover() }()
			se.Run()
			return nil
		}()
		p, ok := got.(*ShardPanic)
		if !ok {
			t.Fatalf("shards=%d: recovered %T %v, want *ShardPanic", shards, got, got)
		}
		if p.Shard != bad || p.Value != boom {
			t.Fatalf("shards=%d: recovered shard %d value %v, want shard %d value %v", shards, p.Shard, p.Value, bad, boom)
		}
		if n := settleGoroutines(before); n > before {
			t.Fatalf("shards=%d: %d goroutines after the panic, %d before", shards, n, before)
		}
	}
}

// TestShardedConstructorPanics pins the argument contract.
func TestShardedConstructorPanics(t *testing.T) {
	for _, tc := range []struct {
		n        int
		interval Duration
	}{{0, 1}, {-1, 1}, {1, 0}, {1, -0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSharded(%d, %v) did not panic", tc.n, tc.interval)
				}
			}()
			NewSharded(tc.n, tc.interval)
		}()
	}
	se := NewSharded(1, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SendToHub(nil) did not panic")
			}
		}()
		se.SendToHub(0, 0, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SendToShard(nil) did not panic")
			}
		}()
		se.SendToShard(0, nil)
	}()
}

// TestShardedEpochOf pins the window arithmetic, including the exact
// boundary case and t=0.
func TestShardedEpochOf(t *testing.T) {
	se := NewSharded(1, 0.5)
	for _, tc := range []struct {
		t    Time
		want uint64
	}{{0, 0}, {0.25, 0}, {0.5, 0}, {0.50001, 1}, {1, 1}, {1.25, 2}, {100000.25, 200000}} {
		if got := se.epochOf(tc.t); got != tc.want {
			t.Errorf("epochOf(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
	if !math.IsInf(float64(NewSharded(2, 1).nextEventTime().Seconds()), 1) {
		t.Error("nextEventTime on empty engines should be +Inf")
	}
}

// FuzzShardBarrier drives a byte-steered topology through 1, 2, 4 and 7
// shards and requires byte-identical logs — the conservative barrier's
// canonical order, reply quantization and idle skip must all be
// shard-count-invariant for arbitrary event/send patterns.
func FuzzShardBarrier(f *testing.F) {
	f.Add(uint64(1), uint8(3), false)
	f.Add(uint64(42), uint8(17), true)
	f.Add(uint64(0xDEAD), uint8(40), false)
	f.Fuzz(func(t *testing.T, seed uint64, entities uint8, fine bool) {
		n := int(entities%40) + 1
		interval := Duration(0.5)
		if fine {
			interval = 0.125
		}
		want := topologyLog(1, n, seed, interval)
		for _, shards := range []int{2, 4, 7} {
			if got := topologyLog(shards, n, seed, interval); got != want {
				t.Fatalf("seed=%d entities=%d: %d-shard log diverged from serial", seed, n, shards)
			}
		}
	})
}

// BenchmarkShardedEngine measures the cost of one cross-shard round trip
// (shard event → barrier → hub event → reply delivery) at a typical
// fan-in: 64 entities per shard ping-ponging against the hub. The metric
// tracks how barrier overhead scales with shard count.
func BenchmarkShardedEngine(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const perShard = 64
			se := NewSharded(shards, 1)
			// Fixed per-entity hop counts: shard goroutines must not share
			// counters, so the total work is partitioned up front.
			hopsPer := b.N/(shards*perShard) + 1
			for s := 0; s < shards; s++ {
				for e := 0; e < perShard; e++ {
					s, e := s, e
					key := uint64(s*perShard + e)
					eng := se.Shard(s)
					left := hopsPer
					var hop func()
					hop = func() {
						if left == 0 {
							return
						}
						left--
						se.SendToHub(s, key, func() {
							se.SendToShard(s, func() {
								eng.After(0.5, hop)
							})
						})
					}
					eng.At(Time(float64(e)*0.01), hop)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			se.Run()
		})
	}
}

// BenchmarkShardBarrier measures the fixed cost of one epoch window: every
// shard has one self-rescheduling event and nothing crosses the barrier,
// so an op is the publish, the claims, one event per shard and the join.
// A window allocates nothing.
func BenchmarkShardBarrier(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			se := NewSharded(shards, 1)
			for s := 0; s < shards; s++ {
				eng := se.Shard(s)
				left := b.N
				var tick func()
				tick = func() {
					if left--; left > 0 {
						eng.After(1, tick)
					}
				}
				eng.At(0.5, tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			se.Run()
			if se.Windows() != uint64(b.N) {
				b.Fatalf("ran %d windows, want %d", se.Windows(), b.N)
			}
		})
	}
}
