package exp

import (
	"offload/internal/core"
	"offload/internal/device"
	"offload/internal/metrics"
	"offload/internal/network"
	"offload/internal/workload"
)

// E5Energy reproduces the device-energy analysis (Figure 4): device energy
// per task under each policy, and the projected number of tasks one
// battery charge supports (battery capacity divided by measured energy
// per task).
//
// Expected shape: offloading pays radio energy instead of compute energy;
// for the compute-heavy templates that is orders of magnitude less, so
// cloud policies extend battery life by a large factor. For the
// transfer-heavy video template the gap narrows — radio time is the
// break-even.
func E5Energy(s Scale) ([]*metrics.Table, error) {
	policies := []core.PolicyName{core.PolicyLocalOnly, core.PolicyEdgeAll,
		core.PolicyCloudAll, core.PolicyDeadlineAware}
	apps := []string{"sci-batch", "report-gen", "video-transcode"}

	tbl := metrics.NewTable(
		"E5 (Fig 4): device energy per task and projected battery life",
		"app", "policy", "task_mJ", "tasks_per_charge", "extension_x").
		Kinds(metrics.Auto, metrics.Auto, metrics.MilliJ, metrics.Whole, metrics.Ratio)
	for _, app := range apps {
		mix, err := workload.Mix(app)
		if err != nil {
			return nil, err
		}
		localPerTask := 0.0
		for _, policy := range policies {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Policy = policy
			cfg.ArrivalRateHint = e1Rate
			// Measure pure energy rates: mains power the device so the
			// battery never cuts the run short, then project.
			batteryJ := cfg.Device.BatteryJ
			cfg.Device.BatteryJ = 0
			res, err := runCell(s, cfg, mix, feed{rate: e1Rate})
			if err != nil {
				return nil, err
			}
			perTaskMilliJ := res.stats.EnergyPerTaskMilliJ()
			if policy == core.PolicyLocalOnly {
				localPerTask = perTaskMilliJ
			}
			tasksPerCharge := 0.0
			if perTaskMilliJ > 0 {
				tasksPerCharge = batteryJ * 1000 / perTaskMilliJ
			}
			extension := 0.0
			if perTaskMilliJ > 0 && localPerTask > 0 {
				extension = localPerTask / perTaskMilliJ
			}
			tbl.Add(app, policy, perTaskMilliJ, tasksPerCharge, extension)
		}
	}
	// Connectivity scenario: the same offloading on cellular pays the LTE
	// DRX tail (~2 s of ~1 W after every transfer), which dominates radio
	// energy for small payloads and erodes the offloading dividend.
	tailTbl := metrics.NewTable(
		"E5b: radio tail — WiFi vs LTE connectivity for cloud offloading",
		"app", "connectivity", "task_mJ", "extension_x").
		Kinds(metrics.Auto, metrics.Auto, metrics.MilliJ, metrics.Ratio)
	for _, app := range []string{"report-gen", "sci-batch"} {
		mix, err := workload.Mix(app)
		if err != nil {
			return nil, err
		}
		localPerTask := 0.0
		{
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Policy = core.PolicyLocalOnly
			cfg.Device.BatteryJ = 0
			res, err := runCell(s, cfg, mix, feed{rate: e1Rate})
			if err != nil {
				return nil, err
			}
			localPerTask = res.stats.EnergyPerTaskMilliJ()
		}
		for _, conn := range []string{"wifi", "lte"} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Policy = core.PolicyCloudAll
			cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
			cfg.ArrivalRateHint = e1Rate
			if conn == "lte" {
				cfg.Device = device.SmartphoneLTE()
				lte := network.LTECloud()
				cfg.CloudPath = &lte
			}
			cfg.Device.BatteryJ = 0
			res, err := runCell(s, cfg, mix, feed{rate: e1Rate})
			if err != nil {
				return nil, err
			}
			perTask := res.stats.EnergyPerTaskMilliJ()
			ext := 0.0
			if perTask > 0 {
				ext = localPerTask / perTask
			}
			tailTbl.Add(app, conn, perTask, ext)
		}
	}
	return []*metrics.Table{tbl, tailTbl}, nil
}
