package exp

import (
	"fmt"

	"offload/internal/alloc"
	"offload/internal/callgraph"
	"offload/internal/chain"
	"offload/internal/device"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/partition"
	"offload/internal/rng"
	"offload/internal/serverless"
	"offload/internal/sim"
	"offload/internal/workload"
)

// E15Granularity reproduces the deployment-granularity ablation (Table 9):
// should the offloadable side of an application deploy as ONE aggregated
// function (what the online scheduler's function pool does) or as one
// function PER component (what the CI/CD manifest deploys)? Five
// sequential runs per variant, on a fresh platform each.
//
// Expected shape: per-component deployment right-sizes each stage's
// memory (cheaper GB-seconds for the light stages) but pays one cold
// start per function on the first run and a per-request charge per stage;
// the monolithic function amortises those but over-provisions memory for
// its lightest work. Neither dominates — the gap per run is small, which
// is itself the finding: granularity is an operational choice (rollback
// scope, canary precision), not a cost cliff.
func E15Granularity(s Scale) ([]*metrics.Table, error) {
	tbl := metrics.NewTable(
		"E15 (Tab 9): one aggregated function vs one function per component",
		"app", "deployment", "functions", "run_s", "run_usd", "run_mJ").
		Kinds(metrics.Auto, metrics.Auto, metrics.Auto, metrics.Seconds, metrics.USD, metrics.MilliJ)
	const runs = 5
	templates := callgraph.Templates()
	for _, app := range []string{"ml-batch", "sci-batch", "report-gen"} {
		g := templates[app]
		mono, err := runMonolithic(s, g, runs)
		if err != nil {
			return nil, err
		}
		tbl.Add(app, "monolithic", 1, mono.meanS, mono.meanUSD, mono.meanMJ)
		per, err := runPerComponent(s, g, runs)
		if err != nil {
			return nil, err
		}
		tbl.Add(app, "per-component", per.functions, per.meanS, per.meanUSD, per.meanMJ)
	}
	return []*metrics.Table{tbl}, nil
}

type granResult struct {
	meanS, meanUSD, meanMJ float64
	functions              int
}

func e15Fixture(seed uint64) (*sim.Engine, *device.Device, *network.Path, *serverless.Platform) {
	eng := sim.NewEngine()
	dev := device.New(eng, device.Smartphone())
	path := network.New(eng, rng.New(seed+1), network.WiFiCloud())
	platform := serverless.NewPlatform(eng, rng.New(seed+2), serverless.LambdaLike())
	return eng, dev, path, platform
}

// runMonolithic executes the app as the aggregate task the function pool
// would build: one function sized for the whole offloadable side.
func runMonolithic(s Scale, g *callgraph.Graph, runs int) (granResult, error) {
	eng, dev, path, platform := e15Fixture(s.Seed)
	tmpl, err := workload.FromGraph(g)
	if err != nil {
		return granResult{}, err
	}
	allocator := alloc.New(platform.Config())
	dec, err := allocator.Choose(alloc.Request{
		Cycles:           tmpl.MeanCycles,
		ParallelFraction: tmpl.ParallelFraction,
		MemoryFloorBytes: tmpl.MemoryBytes,
		ColdStartProb:    1,
	})
	if err != nil {
		return granResult{}, err
	}
	fn, err := platform.Deploy(serverless.FunctionConfig{
		Name: g.Name() + "-all", MemoryBytes: dec.MemoryBytes,
	})
	if err != nil {
		return granResult{}, err
	}

	var out granResult
	out.functions = 1
	var durS, usdSum, mj float64
	var runOnce func(i int)
	runOnce = func(i int) {
		if i >= runs {
			return
		}
		start := eng.Now()
		task := &model.Task{
			App: g.Name(), Cycles: tmpl.MeanCycles,
			MemoryBytes: tmpl.MemoryBytes, ParallelFraction: tmpl.ParallelFraction,
			InputBytes: tmpl.InputBytes, OutputBytes: tmpl.OutputBytes,
		}
		path.Transfer(task.InputBytes, network.Uplink, func(up network.Report) {
			mj += dev.RadioEnergyMilliJ(up.Duration(), true)
			fn.Execute(task, func(rep model.ExecReport) {
				usdSum += rep.CostUSD
				path.Transfer(task.OutputBytes, network.Downlink, func(down network.Report) {
					mj += dev.RadioEnergyMilliJ(down.Duration(), false)
					durS += float64(eng.Now().Sub(start))
					runOnce(i + 1)
				})
			})
		})
	}
	runOnce(0)
	eng.Run()
	out.meanS = durS / float64(runs)
	out.meanUSD = usdSum / float64(runs)
	out.meanMJ = mj / float64(runs)
	return out, nil
}

// runPerComponent executes the app through the chain runner with every
// non-pinned component on its own allocator-sized function.
func runPerComponent(s Scale, g *callgraph.Graph, runs int) (granResult, error) {
	eng, dev, path, platform := e15Fixture(s.Seed + 100)
	allocator := alloc.New(platform.Config())
	assignment := partition.AllRemote(g)
	fns := make(map[string]*serverless.Function)
	count := 0
	for i, remote := range assignment {
		if !remote {
			continue
		}
		comp := g.Component(callgraph.ComponentID(i))
		dec, err := allocator.Choose(alloc.Request{
			Cycles:           comp.Cycles * comp.CallsPerRun,
			ParallelFraction: comp.ParallelFraction,
			MemoryFloorBytes: comp.MemoryBytes,
			ColdStartProb:    1,
		})
		if err != nil {
			return granResult{}, err
		}
		fn, err := platform.Deploy(serverless.FunctionConfig{
			Name: g.Name() + "-" + comp.Name, MemoryBytes: dec.MemoryBytes,
		})
		if err != nil {
			return granResult{}, err
		}
		fns[comp.Name] = fn
		count++
	}
	runner, err := chain.New(eng, chain.Config{
		Graph: g, Assignment: assignment, Device: dev, Path: path, Functions: fns,
	})
	if err != nil {
		return granResult{}, err
	}

	var out granResult
	out.functions = count
	var durS, usdSum, mj float64
	var runErr error
	var runOnce func(i int)
	runOnce = func(i int) {
		if i >= runs {
			return
		}
		runner.Run(func(res chain.Result) {
			if res.Failed {
				runErr = fmt.Errorf("e15: %s chain run %d failed", g.Name(), i)
				return
			}
			durS += float64(res.Duration())
			usdSum += res.CostUSD
			mj += res.EnergyMilliJ
			runOnce(i + 1)
		})
	}
	runOnce(0)
	eng.Run()
	if runErr != nil {
		return granResult{}, runErr
	}
	out.meanS = durS / float64(runs)
	out.meanUSD = usdSum / float64(runs)
	out.meanMJ = mj / float64(runs)
	return out, nil
}
