package exp

import (
	"fmt"

	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/serverless"
	"offload/internal/workload"
)

// E12Failures reproduces the robustness analysis (Table 6): the cloud
// policy under injected transient invocation failures, with and without
// retries. Failed attempts are still billed (as real platforms bill
// crashed containers), so retries cost money as well as time.
//
// Expected shape: without retries the task failure rate tracks the
// injected rate; with retries the failure rate collapses to roughly
// rate^attempts while cost per task rises by about the failure rate (the
// re-billed attempts) and completion time absorbs the backoff. Deadline
// misses stay at zero — another place the non-time-critical budget pays.
func E12Failures(s Scale) ([]*metrics.Table, error) {
	mix, err := workload.Mix("report-gen")
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(
		"E12 (Tab 6): transient failures, with and without retries",
		"failure_rate", "retries", "task_failures", "sched_retries", "task_usd", "mean_s", "miss")

	for _, rate := range []float64{0.05, 0.2, 0.5} {
		for _, attempts := range []int{1, 5} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Policy = core.PolicyCloudAll
			cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
			sl := serverless.LambdaLike()
			sl.FailureRate = rate
			cfg.Serverless = &sl
			cfg.ArrivalRateHint = e1Rate
			cfg.Retries = attempts
			if attempts > 1 {
				cfg.RetryBackoff = 5
			}
			res, err := runCell(s, cfg, mix, feed{rate: e1Rate})
			if err != nil {
				return nil, err
			}
			st := res.stats
			tbl.AddRow(
				fmt.Sprintf("%g", rate),
				fmt.Sprintf("%d", attempts),
				pct(float64(st.Failed)/float64(st.Total())),
				fmt.Sprintf("%d", st.Retries),
				usd(st.CostPerTask()),
				seconds(st.MeanCompletion()),
				pct(st.MissRate()),
			)
		}
	}
	return []*metrics.Table{tbl}, nil
}
