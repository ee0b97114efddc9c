package exp

import (
	"offload/internal/cloudvm"
	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/workload"
)

// E14Bursts reproduces the elasticity analysis (Table 8): the abstract
// leans on "seemingly endless computational capacity in the cloud"; this
// experiment checks what that buys under bursty arrivals. The same
// report-gen workload arrives either as a steady Poisson stream or as an
// MMPP (calm 0.01/s, bursts of 5/s lasting ~2 min) with an equal long-run
// rate, served by serverless, a fixed VM, or an autoscaled VM fleet.
//
// Expected shape: all three handle the steady stream; under bursts the
// fixed VM's queue explodes (P95 grows by an order of magnitude), the
// autoscaler lands in between (its 60 s boot delay lags each burst), and
// serverless degrades the least because every invocation gets its own
// container (only the device radio and the account limit are shared).
func E14Bursts(s Scale) ([]*metrics.Table, error) {
	mix, err := workload.Mix("report-gen")
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(
		"E14 (Tab 8): absorbing bursty arrivals (equal long-run rate)",
		"arrivals", "backend", "mean_s", "p95_s", "miss", "task_usd", "infra_usd").
		Kinds(metrics.Auto, metrics.Auto, metrics.Seconds, metrics.Seconds, metrics.Percent, metrics.USD, metrics.USD)

	// MMPP: calm 0.01/s, burst 3/s; calm spells ~20 min, bursts ~2 min.
	// The long-run mean (~0.28/s) keeps the fixed VM stable on the steady
	// stream (demand ≈ 1.2 of its 2 core-seconds/second), so any collapse
	// under the bursty stream is the bursts' doing, not plain overload.
	const (
		calmRate  = 0.01
		burstRate = 3.0
		toBurst   = 1.0 / 1200
		toCalm    = 1.0 / 120
	)
	// Long-run mean of the MMPP, used as the steady comparator's rate.
	burstFrac := (1 / toCalm) / (1/toBurst + 1/toCalm)
	meanRate := calmRate*(1-burstFrac) + burstRate*burstFrac

	backends := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"serverless", func(cfg *core.Config) {
			cfg.Policy = core.PolicyCloudAll
		}},
		{"vm-fixed", func(cfg *core.Config) {
			cfg.Policy = core.PolicyVMAll
			vm := cloudvm.C5Large()
			cfg.VM = &vm
		}},
		{"vm-autoscaled", func(cfg *core.Config) {
			cfg.Policy = core.PolicyVMAll
			vm := cloudvm.Autoscaled()
			cfg.VM = &vm
		}},
	}
	for _, arrivals := range []string{"steady", "bursty"} {
		for _, backend := range backends {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
			cfg.ArrivalRateHint = meanRate
			backend.mutate(&cfg)
			if cfg.Policy == core.PolicyVMAll {
				cfg.Serverless, cfg.ArrivalRateHint = nil, 0
			}

			sys, err := core.NewSystem(cfg)
			if err != nil {
				return nil, err
			}
			gen, err := workload.NewGenerator(sys.Src.Split(), mix)
			if err != nil {
				return nil, err
			}
			var arr workload.Arrivals
			if arrivals == "steady" {
				arr = workload.NewPoisson(sys.Src.Split(), meanRate)
			} else {
				arr = workload.NewMMPP(sys.Src.Split(), calmRate, burstRate, toBurst, toCalm)
			}
			sys.SubmitStream(arr, gen, s.Tasks*3)
			sys.Run()

			st := sys.Stats()
			tbl.Add(arrivals, backend.name, st.MeanCompletion(), st.P95Completion(), st.MissRate(),
				st.CostPerTask(), sys.InfrastructureCostUSD())
		}
	}
	return []*metrics.Table{tbl}, nil
}
