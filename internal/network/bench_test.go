package network

import (
	"testing"

	"offload/internal/rng"
	"offload/internal/sim"
)

// serialisedTransferCycle returns one uplink then one downlink on a
// serialised, jittered, degrading radio path, run to completion: the
// network legs of every remote attempt.
func serialisedTransferCycle() func() {
	eng := sim.NewEngine()
	p := New(eng, rng.New(1), LTECloud())
	done := func(Report) {}
	return func() {
		p.Transfer(64<<10, Uplink, done)
		p.Transfer(16<<10, Downlink, done)
		eng.Run()
	}
}

// TestTransferSteadyStateAllocatesNothing holds a warm path's transfers,
// radio queueing included, to zero allocations.
func TestTransferSteadyStateAllocatesNothing(t *testing.T) {
	cycle := serialisedTransferCycle()
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("transfer cycle allocates %v times, want 0", n)
	}
}

// BenchmarkPathTransfer measures an uplink and a queued downlink on a
// serialised radio path, each through radio grant, flight and release.
func BenchmarkPathTransfer(b *testing.B) {
	cycle := serialisedTransferCycle()
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
