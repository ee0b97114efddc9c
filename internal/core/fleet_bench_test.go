package core

import (
	"runtime"
	"testing"

	"offload/internal/rng"
	"offload/internal/sim"
	"offload/internal/workload"
)

// The fleet-flash configuration as perfbench/fleet.go builds it: the
// threshold policy over the serverless platform alone. The shard count is
// fixed at two, a 2-vCPU layout, where the workload uses one per CPU, so
// allocs/op is the same on every machine.
const (
	fleetBenchUEs      = 1_000
	fleetBenchShards   = 2
	fleetBenchCalmRate = 0.02

	// The flash crowd: fleetBenchTasks per UE, arriving at the calm rate
	// except inside [fleetBenchFlashStart, fleetBenchFlashEnd), where
	// they arrive at fleetBenchFlashRate.
	fleetBenchTasks      = 11
	fleetBenchFlashRate  = 2.0
	fleetBenchFlashStart = sim.Time(30)
	fleetBenchFlashEnd   = sim.Time(90)
)

// fleetBenchConfig is the fleet-flash configuration on fleetBenchShards
// shards.
func fleetBenchConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.Policy = PolicyThreshold
	cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
	cfg.ArrivalRateHint = fleetBenchCalmRate
	cfg.ShardCount = fleetBenchShards
	return cfg
}

// flashCrowd is E21's two-regime arrival process: calm Poisson traffic
// that switches to a hotter stream inside the flash window.
type flashCrowd struct{ calm, flash workload.Arrivals }

func (f *flashCrowd) Next(now sim.Time) sim.Duration {
	if now >= fleetBenchFlashStart && now < fleetBenchFlashEnd {
		return f.flash.Next(now)
	}
	return f.calm.Next(now)
}

// submitFlashCrowd submits fleetBenchTasks flash-crowd tasks per UE.
func submitFlashCrowd(tb testing.TB, f *ShardedFleet) {
	err := f.Submit(fleetBenchTasks, func(src *rng.Source, _ int) workload.Arrivals {
		return &flashCrowd{
			calm:  workload.NewPoisson(src.Split(), fleetBenchCalmRate),
			flash: workload.NewPoisson(src.Split(), fleetBenchFlashRate),
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkNewShardedFleet measures fleet set-up: an operation builds a
// fleet-flash-shaped ShardedFleet of fleetBenchUEs devices and runs no
// task. B/UE reports the bytes allocated per device.
func BenchmarkNewShardedFleet(b *testing.B) {
	cfg := fleetBenchConfig()
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

// BenchmarkShardedRemoteTask measures the fleet-flash run: an operation
// runs a fleet-flash-shaped ShardedFleet of fleetBenchUEs devices through
// Run, every task of its flash crowd offloaded to the serverless
// platform across the barrier. Building the fleet and submitting the
// crowd are not timed or counted. B/task and allocs/task report what Run
// allocates per task, which in-flight records dominate.
func BenchmarkShardedRemoteTask(b *testing.B) {
	cfg := fleetBenchConfig()
	var ms runtime.MemStats
	var bytes, allocs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := NewShardedFleet(cfg, fleetBenchUEs)
		if err != nil {
			b.Fatal(err)
		}
		submitFlashCrowd(b, f)
		runtime.ReadMemStats(&ms)
		bytes, allocs = bytes-ms.TotalAlloc, allocs-ms.Mallocs
		b.StartTimer()
		f.Run()
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		bytes, allocs = bytes+ms.TotalAlloc, allocs+ms.Mallocs
		if st := f.Stats(); st.Completed+st.Failed != fleetBenchUEs*fleetBenchTasks {
			b.Fatalf("%d of %d tasks settled", st.Completed+st.Failed, fleetBenchUEs*fleetBenchTasks)
		}
		b.StartTimer()
	}
	tasks := float64(b.N * fleetBenchUEs * fleetBenchTasks)
	b.ReportMetric(float64(bytes)/tasks, "B/task")
	b.ReportMetric(float64(allocs)/tasks, "allocs/task")
}
