package alloc

import (
	"math"
	"testing"

	"offload/internal/model"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// FuzzChooseMatchesSweep holds Choose, with its lower-bound cut-off, to the
// full-Sweep reference selection with == on every field, over arbitrary
// requests on perturbed platforms: CPU caps from 0.5 to 16 vCPUs, a full
// vCPU share above the ladder's top, zero and near-zero prices, billing
// granularities from 1 µs to 1 s, minimum bills up to 60 s, and cold
// starts without a median or a per-GB term.
func FuzzChooseMatchesSweep(f *testing.F) {
	f.Add(3e10, 0.8, int64(1<<30), 300.0, 0.3, uint8(1), uint16(550), uint8(0), uint8(3), uint16(1), uint8(0))
	f.Add(3e10, 1.0, int64(1<<30), 300.0, 0.0, uint8(1), uint16(550), uint8(0), uint8(3), uint16(1), uint8(0))
	f.Add(5e9, 0.95, int64(0), 0.0, 1.0, uint8(0), uint16(0x8000), uint8(1), uint8(6), uint16(60000), uint8(3))
	f.Add(1e7, 0.5, int64(300<<20), 0.02, 0.5, uint8(2), uint16(1550), uint8(2), uint8(0), uint16(0), uint8(1))
	f.Add(8e11, 0.0, int64(2<<30), 1.0, 0.1, uint8(1), uint16(0), uint8(3), uint8(4), uint16(100), uint8(2))

	f.Fuzz(func(t *testing.T, cycles, pf float64, floor int64, budget, cold float64,
		platform uint8, share uint16, price, gran uint8, minBilledMs uint16, coldModel uint8) {
		cfg := [...]serverless.Config{platformConfig(), serverless.LambdaLike(), serverless.GCFLike()}[platform%3]
		cfg.MaxShare = 0.5 + float64(share&0x7fff%1551)/100
		if share&0x8000 != 0 {
			cfg.FullShareBytes = cfg.MaxMemory + int64(share&0x7fff)*model.MB
		}
		switch price % 4 {
		case 1:
			cfg.Price.PerGBSecondUSD = 0
		case 2:
			cfg.Price.PerGBSecondUSD = 1e-22
		case 3:
			cfg.Price.PerRequestUSD = 0
		}
		cfg.Price.Granularity = sim.Duration(math.Pow(10, float64(gran%7)-6))
		cfg.Price.MinBilled = sim.Duration(minBilledMs%60001) / 1000
		if coldModel&1 != 0 {
			cfg.ColdStart.PerGBExtra = 0
		}
		if coldModel&2 != 0 {
			cfg.ColdStart.MedianSec = 0
		}
		if cfg.Validate() != nil {
			t.Skip("platform rejected by Validate")
		}
		req := Request{
			Cycles:           cycles,
			ParallelFraction: pf,
			MemoryFloorBytes: floor,
			TimeBudget:       sim.Duration(budget),
			ColdStartProb:    cold,
		}
		checkChooseMatchesReference(t, New(cfg), cfg.Name, req)
	})
}
