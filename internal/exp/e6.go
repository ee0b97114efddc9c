package exp

import (
	"offload/internal/callgraph"
	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/workload"
)

// E6DeadlineSlack reproduces the non-time-critical crossover (Figure 5):
// deadline-miss rate per policy as the deadline slack factor grows from
// "interactive" (hundredths of the default minutes-to-hours budgets) to
// "fully delay tolerant".
//
// Expected shape: at tiny slack the cloud policies miss massively while
// edge misses least — the regime where edge infrastructure earns its
// keep. As slack grows, every remote policy's miss rate collapses to
// zero and the curves converge: exactly the claim that non-time-critical
// use cases can neglect edge computing's advantage. DeadlineAware tracks
// the best feasible option across the whole sweep.
func E6DeadlineSlack(s Scale) ([]*metrics.Table, error) {
	mix, err := workload.Mix(callgraph.TemplateNames()...)
	if err != nil {
		return nil, err
	}
	policies := []core.PolicyName{core.PolicyLocalOnly, core.PolicyEdgeAll,
		core.PolicyCloudAll, core.PolicyDeadlineAware}
	factors := []float64{0.0002, 0.001, 0.01, 0.1, 1, 10}

	tbl := metrics.NewTable(
		"E6 (Fig 5): deadline-miss rate vs slack factor",
		"slack_x", "policy", "miss", "mean_s", "task_usd").
		Kinds(metrics.Auto, metrics.Auto, metrics.Percent, metrics.Seconds, metrics.USD)
	for _, factor := range factors {
		scaled := scaleDeadlines(mix, factor)
		for _, policy := range policies {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Policy = policy
			cfg.ArrivalRateHint = e1Rate
			res, err := runCell(s, cfg, scaled, feed{rate: e1Rate})
			if err != nil {
				return nil, err
			}
			tbl.Add(factor, policy, res.stats.MissRate(), res.stats.MeanCompletion(), res.stats.CostPerTask())
		}
	}
	return []*metrics.Table{tbl}, nil
}
