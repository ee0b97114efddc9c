package exp

import (
	"math"

	"offload/internal/cloudvm"
	"offload/internal/core"
	"offload/internal/edge"
	"offload/internal/metrics"
	"offload/internal/workload"
)

// E7CostCrossover reproduces the infrastructure-cost comparison (Table 2):
// monthly dollars to serve a report-gen workload at growing volume, on
// serverless (measured $/task × volume), on right-sized always-on VMs,
// and on the fixed edge site.
//
// Expected shape: serverless is cheapest at low volume because it bills
// nothing when idle; the VM fleet wins once sustained utilisation covers
// its hourly price; the edge site is a flat line that only makes sense at
// high volume — "the required infrastructure" drawback the abstract
// calls out.
func E7CostCrossover(s Scale) ([]*metrics.Table, error) {
	mix, err := workload.Mix("report-gen")
	if err != nil {
		return nil, err
	}
	const hoursPerMonth = 730.0

	vmCfg := cloudvm.C5Large()
	edgeCfg := edge.SmallSite()

	// Single-task VM service time for the template's offloadable demand.
	execSec := mix[0].Template.MeanCycles / vmCfg.CPUHz

	tbl := metrics.NewTable(
		"E7 (Tab 2): monthly cost vs task volume (report-gen)",
		"tasks_per_hour", "serverless_usd", "vm_usd", "vm_instances", "edge_usd", "cheapest").
		Kinds(metrics.Auto, metrics.USD, metrics.USD, metrics.Auto, metrics.USD)
	for _, perHour := range []float64{1, 10, 100, 1000, 5000} {
		rate := perHour / 3600

		cfg := core.DefaultConfig()
		cfg.Seed = s.Seed
		cfg.Policy = core.PolicyCloudAll
		cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
		cfg.ArrivalRateHint = rate
		res, err := runCell(s, cfg, mix, feed{rate: rate})
		if err != nil {
			return nil, err
		}
		perTask := res.stats.CostPerTask()
		serverlessMonthly := perTask * perHour * hoursPerMonth

		// VMs sized for 70% target utilisation.
		demandCores := rate * execSec
		instances := int(math.Max(1, math.Ceil(demandCores/(float64(vmCfg.Cores)*0.7))))
		vmMonthly := float64(instances) * vmCfg.HourlyCostUSD * hoursPerMonth

		edgeMonthly := edgeCfg.HourlyCostUSD * hoursPerMonth

		cheapest := "serverless"
		low := serverlessMonthly
		if vmMonthly < low {
			cheapest, low = "vm", vmMonthly
		}
		if edgeMonthly < low {
			cheapest = "edge"
		}
		tbl.Add(perHour, serverlessMonthly, vmMonthly, instances, edgeMonthly, cheapest)
	}
	return []*metrics.Table{tbl}, nil
}
