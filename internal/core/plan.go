package core

import (
	"fmt"

	"offload/internal/alloc"
	"offload/internal/callgraph"
	"offload/internal/cicd"
	"offload/internal/device"
	"offload/internal/network"
	"offload/internal/partition"
	"offload/internal/profile"
	"offload/internal/rng"
	"offload/internal/serverless"
	"offload/internal/workload"
)

// Weights converts seconds, joules and dollars into the partitioner's
// scalar objective.
type Weights struct {
	Latency float64 // per second
	Energy  float64 // per joule
	Money   float64 // per dollar
}

// DefaultWeights balances the three for a battery-powered consumer device:
// a dollar matters, a joule is ~2.3e-5 dollars (12 Wh battery valued at
// $1), a second of a non-time-critical job is worth very little.
func DefaultWeights() Weights {
	return Weights{Latency: 0.001, Energy: 2.3e-5, Money: 1}
}

// CostModelFor derives the partitioner's cost model from concrete
// substrate configurations: device speed and energy, serverless CPU at the
// given memory hint, network bandwidth and price.
func CostModelFor(dev device.Config, sl serverless.Config, memHint int64, net network.Config, w Weights) partition.CostModel {
	share := sl.CPUShare(memHint)
	gb := float64(memHint) / float64(1<<30)
	return partition.CostModel{
		LocalHz:            dev.CPUHz,
		RemoteHz:           sl.BaselineHz * min(share, 1), // serial components
		BandwidthBps:       min(net.UplinkBps, net.DownlinkBps),
		RTTSeconds:         2 * float64(net.OneWayDelay),
		USDPerRemoteSecond: gb * sl.Price.PerGBSecondUSD,
		EnergyJPerCycle:    dev.ActivePowerW / dev.CPUHz,
		RadioJPerByte:      dev.TxPowerW * 8 / net.UplinkBps,
		LatencyWeight:      w.Latency,
		EnergyWeight:       w.Energy,
		MoneyWeight:        w.Money,
		MaxRemoteMemory:    sl.MaxMemory,
	}
}

// PlanOptions configures the offline planning journey.
type PlanOptions struct {
	Device     device.Config
	Serverless serverless.Config
	CloudPath  network.Config
	Weights    Weights

	ProfileRuns  int     // default 30
	ProfileNoise float64 // relative measurement noise, default 0.05
	Seed         uint64
}

// Plan is the offline artefact for one application: what to offload, how
// to size it, and the workload template for simulating it.
type Plan struct {
	App       string
	Catalog   *profile.Catalog
	Partition partition.Result
	Remote    []string
	Manifest  cicd.Manifest
	Template  workload.TaskTemplate
	// EstimatedCostPerRunUSD is the allocator's expected serverless bill
	// for one application run under the plan.
	EstimatedCostPerRunUSD float64
}

// PlanApp runs the full offline journey on an application graph:
// determine demands (profile), partition (min-cut), allocate serverless
// resources per offloaded component, and emit the deployment manifest.
func PlanApp(g *callgraph.Graph, opts PlanOptions) (*Plan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Device.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Serverless.Validate(); err != nil {
		return nil, err
	}
	if err := opts.CloudPath.Validate(); err != nil {
		return nil, err
	}
	if opts.Weights == (Weights{}) {
		opts.Weights = DefaultWeights()
	}
	runs := opts.ProfileRuns
	if runs <= 0 {
		runs = 30
	}
	noise := opts.ProfileNoise
	if noise == 0 {
		noise = 0.05
	}

	src := rng.New(opts.Seed + 0x9e37)
	meter := profile.NewMeter(src, noise)
	cat, err := profile.BuildCatalog(g, meter, runs)
	if err != nil {
		return nil, err
	}
	est, err := cat.EstimatedGraph(g)
	if err != nil {
		return nil, err
	}

	cm := CostModelFor(opts.Device, opts.Serverless,
		opts.Serverless.FullShareBytes, opts.CloudPath, opts.Weights)
	res, err := partition.MinCut(est, cm)
	if err != nil {
		return nil, err
	}

	allocator := alloc.New(opts.Serverless)
	plan := &Plan{
		App:       g.Name(),
		Catalog:   cat,
		Partition: res,
		Remote:    res.Remote(est),
		Manifest:  cicd.Manifest{App: g.Name(), Remote: res.Remote(est)},
	}
	for _, name := range plan.Remote {
		id, _ := est.Lookup(name)
		comp := est.Component(id)
		dec, err := allocator.Choose(alloc.Request{
			Cycles:           comp.Cycles,
			ParallelFraction: comp.ParallelFraction,
			MemoryFloorBytes: comp.MemoryBytes,
			ColdStartProb:    1,
		})
		if err != nil {
			return nil, fmt.Errorf("core: allocating %s: %w", name, err)
		}
		plan.Manifest.Functions = append(plan.Manifest.Functions, cicd.FunctionSpec{
			Name:        g.Name() + "-" + name,
			Component:   name,
			MemoryBytes: dec.MemoryBytes,
		})
		plan.EstimatedCostPerRunUSD += dec.ExpectedCostUSD * comp.CallsPerRun
	}

	tmpl, err := workload.FromGraph(est)
	if err != nil {
		return nil, err
	}
	plan.Template = tmpl
	return plan, nil
}
