package exp

import (
	"offload/internal/core"
	"offload/internal/metrics"
)

// E9Scalability reproduces the fleet-scale analysis (Figure 6): one shared
// serverless region serving a growing fleet of devices, each with its own
// radio path and deadline-aware scheduler (core.Fleet). Reported: the
// simulated event count and whether per-task quality metrics stay stable
// as the fleet grows — shared-platform contention (the account
// concurrency limit) is the thing that could break them. Wall-clock
// throughput is measured by the Runner's per-experiment stats and the
// bench_test.go benchmarks, not here: table cells must be deterministic
// so the suite diffs byte-identically across runs and worker counts.
//
// Expected shape: events grow roughly linearly with the fleet (the kernel
// is O(log n) per event); cost per task and miss rate stay flat until the
// fleet saturates the account concurrency limit.
func E9Scalability(s Scale) ([]*metrics.Table, error) {
	tbl := metrics.NewTable(
		"E9 (Fig 6): fleet scaling on one shared serverless region",
		"devices", "tasks", "events", "mean_s", "task_usd", "miss").
		Kinds(metrics.Auto, metrics.Auto, metrics.Auto, metrics.Seconds, metrics.USD, metrics.Percent)

	sizes := []int{1, 10, s.Devices / 5, s.Devices}
	seen := map[int]bool{}
	for _, k := range sizes {
		if k < 1 || seen[k] {
			continue
		}
		seen[k] = true
		tasksPerDevice := s.Tasks / 4
		if tasksPerDevice < 5 {
			tasksPerDevice = 5
		}

		cfg := core.DefaultConfig()
		cfg.Seed = s.Seed + uint64(k)*31
		cfg.Policy = core.PolicyDeadlineAware
		cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
		cfg.ArrivalRateHint = e1Rate
		fleet, err := core.NewFleet(cfg, k)
		if err != nil {
			return nil, err
		}
		if err := fleet.SubmitStreams(e1Rate, tasksPerDevice); err != nil {
			return nil, err
		}
		fleet.Run()

		st := fleet.Stats()
		events := fleet.Eng.Fired()
		costPerTask := 0.0
		if st.Completed > 0 {
			costPerTask = st.CostUSD / float64(st.Completed)
		}
		tbl.Add(k, st.Completed+st.Failed, events, st.MeanCompletion, costPerTask, st.MissRate())
	}
	return []*metrics.Table{tbl}, nil
}
