package core

import (
	"runtime"
	"testing"
)

// The fleet-flash configuration as perfbench/fleet.go builds it: the
// threshold policy over the serverless platform alone. The shard count is
// fixed at two, a 2-vCPU layout, where the workload uses one per CPU, so
// allocs/op is the same on every machine.
const (
	fleetBenchUEs      = 1_000
	fleetBenchShards   = 2
	fleetBenchCalmRate = 0.02
)

// BenchmarkNewShardedFleet measures fleet set-up: an operation builds a
// fleet-flash-shaped ShardedFleet of fleetBenchUEs devices and runs no
// task. B/UE reports the bytes allocated per device.
func BenchmarkNewShardedFleet(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.Policy = PolicyThreshold
	cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
	cfg.ArrivalRateHint = fleetBenchCalmRate
	cfg.ShardCount = fleetBenchShards
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewShardedFleet(cfg, fleetBenchUEs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.TotalAlloc-before)/float64(b.N*fleetBenchUEs), "B/UE")
}
