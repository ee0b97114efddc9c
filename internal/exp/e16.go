package exp

import (
	"offload/internal/alloc"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/serverless"
)

// E16Providers reproduces the provider-choice analysis (Table 10): the
// same demand profile sized by the allocator on two FaaS providers with
// different billing granularities (1 ms Lambda-like vs 100 ms GCF-like).
//
// Expected shape: for sub-100 ms tasks, the coarse-granularity provider
// bills a full 100 ms slot, inflating cost by up to ~10× relative to fine
// granularity; as task duration grows, rounding amortises and the two
// providers converge to their per-GB-second list prices. The allocator
// adapts its memory choice per provider (their CPU/memory curves differ),
// which is exactly why resource allocation must be provider-aware.
func E16Providers(s Scale) ([]*metrics.Table, error) {
	providers := []serverless.Config{serverless.LambdaLike(), serverless.GCFLike()}
	profiles := []struct {
		name string
		req  alloc.Request
	}{
		{"tiny-20ms", alloc.Request{Cycles: 5e7}},                                                     // ~20 ms at one vCPU
		{"small-200ms", alloc.Request{Cycles: 5e8}},                                                   // ~200 ms
		{"medium-2s", alloc.Request{Cycles: 5e9, MemoryFloorBytes: 512 * model.MB}},                   // ~2 s
		{"large-20s", alloc.Request{Cycles: 5e10, ParallelFraction: 0.8, MemoryFloorBytes: model.GB}}, // ~20 s
	}

	tbl := metrics.NewTable(
		"E16 (Tab 10): allocator choice and cost per provider",
		"profile", "provider", "chosen_mb", "exec_s", "cost_usd", "cost_ratio").
		Kinds(metrics.Auto, metrics.Auto, metrics.Auto, metrics.Seconds, metrics.USD, metrics.Ratio2)
	for _, p := range profiles {
		base := 0.0
		for i, cfg := range providers {
			a := alloc.New(cfg)
			d, err := a.Choose(p.req)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base = d.ExpectedCostUSD
			}
			ratio := metrics.Missing
			if base > 0 {
				ratio = d.ExpectedCostUSD / base
			}
			tbl.Add(p.name, cfg.Name, d.MemoryBytes/model.MB, float64(d.ExpectedTime), d.ExpectedCostUSD, ratio)
		}
	}
	return []*metrics.Table{tbl}, nil
}
