package exp

import (
	"fmt"

	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/sim"
	"offload/internal/workload"
)

// E4ColdStart reproduces the cold-start analysis (Figure 3): the fraction
// of invocations paying a cold start across arrival rates and keep-alive
// settings, and the effect of delay-tolerant batching at low rates.
//
// Expected shape: cold-start fraction falls with arrival rate and with
// keep-alive (approximately exp(-rate·keepAlive)); with keep-alive zero
// every invocation is cold; batching at low rates removes most cold
// starts (one per batch) at the price of completion latency.
func E4ColdStart(s Scale) ([]*metrics.Table, error) {
	mix, err := workload.Mix("report-gen")
	if err != nil {
		return nil, err
	}

	rates := []float64{0.002, 0.02, 0.2, 2}
	keepAlives := []sim.Duration{0, 60, 420, 900}
	coldTbl := metrics.NewTable(
		"E4 (Fig 3a): cold-start fraction vs arrival rate and keep-alive",
		"rate_per_s", "keepalive_s", "cold_frac", "mean_s", "task_usd")
	for _, rate := range rates {
		for _, ka := range keepAlives {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Policy = core.PolicyCloudAll
			cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
			sl := *cfg.Serverless
			sl.KeepAlive = ka
			cfg.Serverless = &sl
			cfg.ArrivalRateHint = rate
			res, err := runCell(s, cfg, mix, feed{rate: rate})
			if err != nil {
				return nil, err
			}
			coldTbl.AddRow(
				fmt.Sprintf("%g", rate),
				fmt.Sprintf("%g", float64(ka)),
				pct(res.coldRate),
				seconds(res.stats.MeanCompletion()),
				usd(res.stats.CostPerTask()),
			)
		}
	}

	// Batching at the all-cold rate: one cold start per batch instead of
	// one per task.
	batchTbl := metrics.NewTable(
		"E4 (Fig 3b): batching delay-tolerant tasks at rate 0.002/s",
		"batch_size", "cold_frac", "mean_s", "task_usd")
	for _, size := range []int{1, 4, 16} {
		cfg := core.DefaultConfig()
		cfg.Seed = s.Seed
		cfg.Policy = core.PolicyCloudAll
		cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
		cfg.ArrivalRateHint = 0.002
		if size > 1 {
			cfg.Batch = &core.BatchConfig{Size: size, MaxWait: 3600}
		}
		res, err := runCell(s, cfg, mix, feed{rate: 0.002})
		if err != nil {
			return nil, err
		}
		batchTbl.AddRow(
			fmt.Sprintf("%d", size),
			pct(res.coldRate),
			seconds(res.stats.MeanCompletion()),
			usd(res.stats.CostPerTask()),
		)
	}

	// Ablation: cold-start-aware sizing (rate hint) vs naive pessimistic
	// sizing. The aware allocator knows warm traffic needs no cold-start
	// headroom and can pick cheaper configurations.
	ablTbl := metrics.NewTable(
		"E4 ablation: cold-start-aware allocation vs naive",
		"rate_per_s", "aware", "sized_mb", "mean_s", "task_usd")
	for _, rate := range []float64{0.002, 2} {
		for _, aware := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Policy = core.PolicyCloudAll
			cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
			if aware {
				cfg.ArrivalRateHint = rate
			}
			res, err := runCell(s, cfg, mix, feed{rate: rate})
			if err != nil {
				return nil, err
			}
			sized := res.system.Env.Functions.Sized("report-gen")
			ablTbl.AddRow(
				fmt.Sprintf("%g", rate),
				fmt.Sprintf("%v", aware),
				fmt.Sprintf("%d", sized/(1<<20)),
				seconds(res.stats.MeanCompletion()),
				usd(res.stats.CostPerTask()),
			)
		}
	}
	// Provisioned concurrency: zero cold starts for a flat capacity fee —
	// worth it at steady rates, wasteful for sporadic traffic.
	provTbl := metrics.NewTable(
		"E4 (Fig 3c): provisioned concurrency vs on-demand",
		"rate_per_s", "provisioned", "cold_frac", "mean_s", "task_usd", "capacity_usd_per_task")
	for _, rate := range []float64{0.002, 0.2} {
		for _, prov := range []int{0, 1, 2} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Policy = core.PolicyCloudAll
			cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
			cfg.ArrivalRateHint = rate
			cfg.ProvisionedConcurrency = prov
			res, err := runCell(s, cfg, mix, feed{rate: rate})
			if err != nil {
				return nil, err
			}
			capacityPerTask := 0.0
			if res.stats.Completed > 0 {
				capacityPerTask = res.system.Platform().ProvisionedCostUSD() /
					float64(res.stats.Completed)
			}
			provTbl.AddRow(
				fmt.Sprintf("%g", rate),
				fmt.Sprintf("%d", prov),
				pct(res.coldRate),
				seconds(res.stats.MeanCompletion()),
				usd(res.stats.CostPerTask()),
				usd(capacityPerTask),
			)
		}
	}
	return []*metrics.Table{coldTbl, batchTbl, ablTbl, provTbl}, nil
}
