package exp

import (
	"fmt"

	"offload/internal/callgraph"
	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/serverless"
	"offload/internal/workload"
)

// E11OffPeak reproduces the delay-for-price analysis (Table 5): under a
// diurnal price schedule (60% discount between 22:00 and 06:00 virtual
// time), the off-peak shifter delays slack-rich serverless tasks into the
// discount window. Compared against immediate dispatch across deadline
// slack factors.
//
// Expected shape: with generous slack nearly every task shifts and the
// bill approaches the discounted rate; as slack tightens fewer tasks can
// afford the wait and the two policies converge; deadline misses stay at
// zero in both — the shifter only delays tasks that can prove they still
// make their deadline.
func E11OffPeak(s Scale) ([]*metrics.Table, error) {
	mix, err := workload.Mix(callgraph.TemplateNames()...)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(
		"E11 (Tab 5): shifting delay-tolerant work into the off-peak window",
		"slack_x", "shifting", "shifted", "task_usd", "saving", "miss", "mean_s")

	// Arrivals start at 20:00 virtual time — two hours before the window
	// opens, so shifting means a real wait that tight deadlines cannot
	// afford and generous ones can.
	const startAt = 20 * 3600

	for _, factor := range []float64{0.05, 1, 4, 24} {
		scaled := scaleDeadlines(mix, factor)
		baseCost := 0.0
		for _, shift := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Policy = core.PolicyCloudAll
			cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
			sl := serverless.LambdaLike()
			sl.Price.OffPeakFactor = 0.4
			sl.Price.OffPeakStartHour = 22
			sl.Price.OffPeakEndHour = 6
			cfg.Serverless = &sl
			cfg.ArrivalRateHint = e1Rate
			cfg.OffPeakShift = shift
			res, err := runCell(s, cfg, scaled, feed{rate: e1Rate, startAt: startAt})
			if err != nil {
				return nil, err
			}
			cost := res.stats.CostPerTask()
			if !shift {
				baseCost = cost
			}
			saving := 0.0
			if baseCost > 0 {
				saving = 1 - cost/baseCost
			}
			shifted := "-"
			if shift && res.system.Shifter != nil {
				sh := res.system.Shifter
				shifted = pct(float64(sh.Shifted()) / float64(sh.Shifted()+sh.Immediate()))
			}
			tbl.AddRow(
				fmt.Sprintf("%g", factor),
				fmt.Sprintf("%v", shift),
				shifted,
				usd(cost),
				pct(saving),
				pct(res.stats.MissRate()),
				seconds(res.stats.MeanCompletion()),
			)
		}
	}
	return []*metrics.Table{tbl}, nil
}
