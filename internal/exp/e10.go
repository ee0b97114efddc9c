package exp

import (
	"fmt"

	"offload/internal/callgraph"
	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/workload"
)

// E10PredictionError reproduces the demand-determination ablation
// (Table 4): the deadline-aware policy driven by predictions perturbed
// with growing relative error, against the exact-prediction baseline.
//
// Expected shape: degradation is graceful, not catastrophic. Misprediction
// mis-sizes functions (paying the pressure penalty or wasted memory) and
// mis-places tasks — overestimates push work to conservative local
// execution (raising completion time and device energy rather than
// dollars), underestimates buy undersized functions (raising billed time).
// Deadline misses stay at zero throughout: the generous non-time-critical
// budgets absorb the error, which is itself part of the paper's argument.
func E10PredictionError(s Scale) ([]*metrics.Table, error) {
	mix, err := workload.Mix(callgraph.TemplateNames()...)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(
		"E10 (Tab 4): impact of demand-prediction error on the framework",
		"rel_error", "mean_s", "miss", "task_usd", "excess_cost", "task_mJ", "cloud_share")

	baseCost := 0.0
	for _, noise := range []float64{0, 0.1, 0.25, 0.5, 1.0} {
		// The framework's serverless-only deployment: predictions drive
		// both the local/cloud decision and function sizing, so error
		// shows up in money and misses rather than being absorbed by a
		// free edge site.
		cfg := core.DefaultConfig()
		cfg.Seed = s.Seed
		cfg.Policy = core.PolicyDeadlineAware
		cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
		cfg.ArrivalRateHint = e1Rate
		cfg.PredictionNoise = noise
		// Let sizing keep chasing the (noisy) predictions, as a live
		// deployment with continuous re-profiling would.
		cfg.RedeployTolerance = 0.3
		res, err := runCell(s, cfg, mix, feed{rate: e1Rate})
		if err != nil {
			return nil, err
		}
		cost := res.stats.CostPerTask()
		if noise == 0 {
			baseCost = cost
		}
		excess := 0.0
		if baseCost > 0 {
			excess = cost/baseCost - 1
		}
		cloudShare := 0.0
		if res.stats.Completed > 0 {
			cloudShare = float64(res.stats.ByPlacement[model.PlaceFunction]) / float64(res.stats.Completed)
		}
		tbl.AddRow(
			fmt.Sprintf("%g", noise),
			seconds(res.stats.MeanCompletion()),
			pct(res.stats.MissRate()),
			usd(cost),
			pct(excess),
			fmtMilliJ(res.stats.EnergyPerTaskMilliJ()),
			pct(cloudShare),
		)
	}
	return []*metrics.Table{tbl}, nil
}
