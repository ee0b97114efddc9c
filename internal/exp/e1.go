package exp

import (
	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/workload"
)

// e1Policies are the placement policies E1 compares. Random is omitted
// from the headline table (it only sanity-checks the informed policies in
// unit tests).
var e1Policies = []core.PolicyName{
	core.PolicyLocalOnly,
	core.PolicyEdgeAll,
	core.PolicyCloudAll,
	core.PolicyVMAll,
	core.PolicyDeadlineAware,
}

// e1Rate is the per-device task arrival rate: ~72 app runs per hour, a
// busy but sustainable personal workload.
const e1Rate = 0.02

// e1ConfigFor provisions exactly the infrastructure each policy needs, so
// the infra_usd column reflects what running that policy actually costs:
// edge-all pays for the edge site, vm-all for the VM, cloud-all and
// deadline-aware (the framework's proposed deployment) for serverless
// only, local-only for nothing.
func e1ConfigFor(policy core.PolicyName) core.Config {
	cfg := core.DefaultConfig()
	cfg.Policy = policy
	switch policy {
	case core.PolicyLocalOnly:
		cfg.Edge, cfg.EdgePath, cfg.Serverless, cfg.CloudPath, cfg.VM = nil, nil, nil, nil, nil
	case core.PolicyEdgeAll:
		cfg.Serverless, cfg.CloudPath, cfg.VM = nil, nil, nil
	case core.PolicyCloudAll, core.PolicyDeadlineAware:
		cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
	case core.PolicyVMAll:
		cfg.Edge, cfg.EdgePath, cfg.Serverless = nil, nil, nil
	}
	return cfg
}

// E1Placement reproduces the headline comparison (Figure 1): for each
// application template, each policy's completion time, deadline misses,
// marginal dollars, infrastructure dollars and device energy.
//
// Expected shape: EdgeAll wins raw latency but carries the infrastructure
// column; CloudAll and DeadlineAware meet the generous deadlines at
// micro-dollar marginal cost; LocalOnly pays no money but the most energy
// and the worst completion times (it saturates the device on the heavy
// templates); DeadlineAware never does worse on misses than CloudAll.
func E1Placement(s Scale) ([]*metrics.Table, error) {
	tbl := metrics.NewTable(
		"E1 (Fig 1): placement policies across application templates",
		"app", "policy", "mean_s", "p95_s", "miss", "task_usd", "infra_usd", "task_mJ").
		Kinds(metrics.Auto, metrics.Auto, metrics.Seconds, metrics.Seconds, metrics.Percent, metrics.USD, metrics.USD, metrics.MilliJ)
	apps := []string{"video-transcode", "ml-batch", "photo-pipeline", "report-gen", "sci-batch"}
	for _, app := range apps {
		mix, err := workload.Mix(app)
		if err != nil {
			return nil, err
		}
		for _, policy := range e1Policies {
			cfg := e1ConfigFor(policy)
			cfg.Seed = s.Seed
			if cfg.Serverless != nil {
				cfg.ArrivalRateHint = e1Rate // sizes the function pool
			}
			res, err := runCell(s, cfg, mix, feed{rate: e1Rate})
			if err != nil {
				return nil, err
			}
			st := res.stats
			tbl.Add(app, policy, st.MeanCompletion(), st.P95Completion(), st.MissRate(),
				st.CostPerTask(), res.infraUSD, st.EnergyPerTaskMilliJ())
		}
	}
	return []*metrics.Table{tbl}, nil
}
