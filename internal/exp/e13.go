package exp

import (
	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/workload"
)

// E13DVFS reproduces the local-execution ablation (Table 7): if the device
// must run the work itself, is racing to idle at full frequency or
// stretching the job with DVFS the better use of the deadline slack — and
// how do both compare to offloading?
//
// Expected shape: DVFS cuts local energy roughly in proportion to the
// frequency reduction the deadline permits (E ∝ f under the quadratic
// power model), without causing misses; offloading still beats both by an
// order of magnitude on compute-heavy apps. DVFS narrows but does not
// close the gap — supporting the paper's choice of offloading over
// on-device power management.
func E13DVFS(s Scale) ([]*metrics.Table, error) {
	tbl := metrics.NewTable(
		"E13 (Tab 7): race-to-idle vs DVFS vs offloading",
		"app", "mode", "task_mJ", "mean_s", "miss", "vs_full").
		Kinds(metrics.Auto, metrics.Auto, metrics.MilliJ, metrics.Seconds, metrics.Percent, metrics.Percent)
	apps := []string{"sci-batch", "report-gen"}
	modes := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"local-full-speed", func(cfg *core.Config) {
			cfg.Policy = core.PolicyLocalOnly
		}},
		{"local-dvfs", func(cfg *core.Config) {
			cfg.Policy = core.PolicyLocalOnly
			cfg.LocalDVFSMinScale = 0.25
		}},
		{"cloud", func(cfg *core.Config) {
			cfg.Policy = core.PolicyCloudAll
		}},
	}
	for _, app := range apps {
		mix, err := workload.Mix(app)
		if err != nil {
			return nil, err
		}
		fullEnergy := 0.0
		for _, mode := range modes {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
			cfg.ArrivalRateHint = e1Rate
			cfg.Device.BatteryJ = 0 // measure rates, not exhaustion
			mode.mutate(&cfg)
			// Use a lower arrival rate for DVFS: stretched executions
			// occupy cores longer, and a saturated queue would conflate
			// queueing with the frequency effect.
			rate := e1Rate
			if mode.name == "local-dvfs" {
				rate = e1Rate / 4
			}
			res, err := runCell(s, cfg, mix, feed{rate: rate})
			if err != nil {
				return nil, err
			}
			energy := res.stats.EnergyPerTaskMilliJ()
			if mode.name == "local-full-speed" {
				fullEnergy = energy
			}
			rel := metrics.Missing
			if fullEnergy > 0 {
				rel = energy/fullEnergy - 1
			}
			tbl.Add(app, mode.name, energy, res.stats.MeanCompletion(), res.stats.MissRate(), rel)
		}
	}
	return []*metrics.Table{tbl}, nil
}
