package exp

import (
	"offload/internal/alloc"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/serverless"
)

// e2Profiles are the three demand profiles swept in E2.
var e2Profiles = []struct {
	name string
	req  alloc.Request
}{
	{"small-serial", alloc.Request{Cycles: 2e9, MemoryFloorBytes: 256 * model.MB}},
	{"medium-serial", alloc.Request{Cycles: 20e9, MemoryFloorBytes: 1024 * model.MB}},
	{"large-parallel", alloc.Request{Cycles: 60e9, ParallelFraction: 0.9, MemoryFloorBytes: 2048 * model.MB}},
}

// E2MemorySweep reproduces the serverless resource-allocation curve
// (Figure 2): execution time and expected cost across the memory ladder
// for three demand profiles, with the allocator's pick marked.
//
// Expected shape: time is non-increasing in memory; cost is U-shaped
// (memory pressure on the left, wasted GB-seconds on the right); the
// allocator's pick coincides with the sweep minimum.
func E2MemorySweep(s Scale) ([]*metrics.Table, error) {
	cfg := serverless.LambdaLike()
	allocator := alloc.New(cfg)

	curve := metrics.NewTable(
		"E2 (Fig 2): execution time and cost vs function memory",
		"profile", "memory_mb", "exec_s", "cost_usd", "chosen").
		Kinds(metrics.Auto, metrics.Auto, metrics.Seconds, metrics.USD)
	choice := metrics.NewTable(
		"E2 summary: allocator pick vs sweep optimum",
		"profile", "chosen_mb", "optimum_mb", "chosen_usd", "optimum_usd").
		Kinds(metrics.Auto, metrics.Auto, metrics.Auto, metrics.USD, metrics.USD)

	for _, p := range e2Profiles {
		sweep, err := allocator.Sweep(p.req)
		if err != nil {
			return nil, err
		}
		chosen, err := allocator.Choose(p.req)
		if err != nil {
			return nil, err
		}
		var best alloc.Decision
		haveBest := false
		for _, d := range sweep {
			if d.MemoryBytes < p.req.MemoryFloorBytes {
				continue
			}
			if !haveBest || d.ExpectedCostUSD < best.ExpectedCostUSD {
				best, haveBest = d, true
			}
		}
		// Sample the curve at readable intervals (every 512 MB plus the
		// chosen point) — the full ladder is 159 rows per profile.
		for _, d := range sweep {
			if d.MemoryBytes < p.req.MemoryFloorBytes {
				continue
			}
			mb := d.MemoryBytes / model.MB
			isChosen := d.MemoryBytes == chosen.MemoryBytes
			if mb%512 != 0 && !isChosen {
				continue
			}
			mark := ""
			if isChosen {
				mark = "<== chosen"
			}
			curve.Add(p.name, mb, float64(d.ExpectedTime), d.ExpectedCostUSD, mark)
		}
		choice.Add(p.name, chosen.MemoryBytes/model.MB, best.MemoryBytes/model.MB,
			chosen.ExpectedCostUSD, best.ExpectedCostUSD)
	}
	return []*metrics.Table{curve, choice}, nil
}
