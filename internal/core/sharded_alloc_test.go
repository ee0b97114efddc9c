//go:build !taskpoison

package core

import (
	"testing"

	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/workload"
)

// TestShardedWarmBatchAllocatesNoAttempts runs batches of serverless
// tasks through one warmed two-shard fleet, a short batch and one twice
// as long, each task settling before its UE's next arrives. Every task
// crosses the barrier to the hub and back. The long batch may allocate
// well under one object per extra remote task: its attempt records come
// back off the shards' pools with their hops bound, so neither a record
// nor a barrier closure is built per task.
func TestShardedWarmBatchAllocatesNoAttempts(t *testing.T) {
	const ues, short = 40, 10
	f, err := NewShardedFleet(fleetBenchConfig(), ues)
	if err != nil {
		t.Fatal(err)
	}
	remote := func() int { return int(f.Stats().ByPlacement[model.PlaceFunction]) }
	batch := func(n int) func() {
		return func() {
			err := f.Submit(n, func(*rng.Source, int) workload.Arrivals { return &workload.Fixed{Gap: 60} })
			if err != nil {
				t.Fatal(err)
			}
			f.Run()
		}
	}
	batch(2 * short)() // warm the pools
	r0 := remote()
	shortAllocs := testing.AllocsPerRun(3, batch(short))
	r1 := remote()
	longAllocs := testing.AllocsPerRun(3, batch(2*short))
	r2 := remote()
	// AllocsPerRun runs each batch four times, once to warm up.
	if r1-r0 != 4*ues*short || r2-r1 != 4*ues*2*short {
		t.Fatalf("batches offloaded %d and %d tasks, want %d and %d", r1-r0, r2-r1, 4*ues*short, 4*ues*2*short)
	}
	extra := float64(ues * short)
	t.Logf("allocs per batch: %d tasks %.0f, %d tasks %.0f", ues*short, shortAllocs, 2*ues*short, longAllocs)
	if longAllocs-shortAllocs > extra/2 {
		t.Errorf("%.0f more remote tasks allocated %.0f more objects, want under %.0f",
			extra, longAllocs-shortAllocs, extra/2)
	}
}
