package offload_test

// The benchmark harness: one benchmark per experiment in the evaluation
// suite (E1–E19, see DESIGN.md and EXPERIMENTS.md), each regenerating its
// table(s) at the quick scale per iteration, plus micro-benchmarks for the
// core algorithms. `go test -bench=. -benchmem` reproduces everything;
// `go run ./cmd/offbench` prints the full-scale tables.

import (
	"context"
	"testing"

	"offload"
	"offload/internal/adapt"
	"offload/internal/alloc"
	"offload/internal/callgraph"
	"offload/internal/cloudvm"
	"offload/internal/core"
	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/exp"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/partition"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/sim"
	"offload/internal/trace"
	"offload/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var e exp.Experiment
	for _, x := range exp.Registry() {
		if x.ID == id {
			e = x
		}
	}
	if e.Run == nil {
		b.Fatalf("no experiment %s in the registry", id)
	}
	scale := exp.Quick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(scale)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || tables[0].Len() == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkSuiteSerial and BenchmarkSuiteParallel regenerate the whole
// quick-scale suite through the Runner — the same substrate offbench and
// CI use — at one worker and at NumCPU workers. Their ratio is the
// wall-clock win the worker pool buys on this machine.
func BenchmarkSuiteSerial(b *testing.B)   { benchSuite(b, 1) }
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, 0) }

func benchSuite(b *testing.B, workers int) {
	b.Helper()
	r := &exp.Runner{Scale: exp.Quick(), Parallel: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := r.Run(context.Background(), exp.Registry())
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(exp.Registry()) {
			b.Fatalf("suite returned %d results", len(results))
		}
	}
}

// BenchmarkE1Placement regenerates Figure 1: policies × app templates.
func BenchmarkE1Placement(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2MemorySweep regenerates Figure 2: cost/time vs memory.
func BenchmarkE2MemorySweep(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3Partition regenerates Table 1: partitioner comparison.
func BenchmarkE3Partition(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4ColdStart regenerates Figure 3: cold starts and batching.
func BenchmarkE4ColdStart(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Energy regenerates Figure 4: device energy and battery life.
func BenchmarkE5Energy(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6DeadlineSlack regenerates Figure 5: miss rate vs slack.
func BenchmarkE6DeadlineSlack(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7CostCrossover regenerates Table 2: monthly cost crossover.
func BenchmarkE7CostCrossover(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Pipeline regenerates Table 3: CI/CD stage timings + rollback.
func BenchmarkE8Pipeline(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Scalability regenerates Figure 6: fleet scaling.
func BenchmarkE9Scalability(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10PredictionError regenerates Table 4: demand-error ablation.
func BenchmarkE10PredictionError(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11OffPeak regenerates Table 5: delay-for-price shifting.
func BenchmarkE11OffPeak(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Failures regenerates Table 6: failures and retries.
func BenchmarkE12Failures(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13DVFS regenerates Table 7: race-to-idle vs DVFS vs offload.
func BenchmarkE13DVFS(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14Bursts regenerates Table 8: burst absorption.
func BenchmarkE14Bursts(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15Granularity regenerates Table 9: deployment granularity.
func BenchmarkE15Granularity(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16Providers regenerates Table 10: provider-aware allocation.
func BenchmarkE16Providers(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17Resilience regenerates Table 11: resilience strategies
// under correlated cloud outages.
func BenchmarkE17Resilience(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18Attribution regenerates Table 12: span-level critical-path
// and cost attribution.
func BenchmarkE18Attribution(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE19Adaptive regenerates Table 13: bandit placement vs the
// static policies across drifting regimes.
func BenchmarkE19Adaptive(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkE20Failover regenerates Table 14: regional disaster drills.
func BenchmarkE20Failover(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkE21FlashCrowd regenerates Table 15: the sharded-engine flash
// crowd (quick scale: 2500 UEs; the 1M-UE run is -scale full only).
func BenchmarkE21FlashCrowd(b *testing.B) { benchExperiment(b, "E21") }

// BenchmarkE22DAGPlacement regenerates Table 16: precedence-oblivious
// release vs upward-rank placement on DAG jobs.
func BenchmarkE22DAGPlacement(b *testing.B) { benchExperiment(b, "E22") }

// --- micro-benchmarks for the core algorithms ---

// BenchmarkSimEngine measures raw event throughput of the kernel.
func BenchmarkSimEngine(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, func() {})
		eng.Step()
	}
}

// BenchmarkMinCutTemplate partitions the ml-batch template.
func BenchmarkMinCutTemplate(b *testing.B) {
	g := callgraph.MLBatch()
	m := core.CostModelFor(device.Smartphone(), serverless.LambdaLike(),
		serverless.LambdaLike().FullShareBytes, network.WiFiCloud(), core.DefaultWeights())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.MinCut(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinCut100 partitions a 100-component random graph.
func BenchmarkMinCut100(b *testing.B) {
	g := callgraph.Random(rng.New(1), 100)
	m := core.CostModelFor(device.Smartphone(), serverless.LambdaLike(),
		serverless.LambdaLike().FullShareBytes, network.WiFiCloud(), core.DefaultWeights())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.MinCut(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocChoose sizes a function over the 159-step Lambda ladder.
func BenchmarkAllocChoose(b *testing.B) {
	a := alloc.New(serverless.LambdaLike())
	req := alloc.Request{Cycles: 3e10, ParallelFraction: 0.8,
		MemoryFloorBytes: 1 << 30, ColdStartProb: 0.3, TimeBudget: 300}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Choose(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerThroughput measures end-to-end tasks/second through
// the deadline-aware scheduler with all substrates live.
func BenchmarkSchedulerThroughput(b *testing.B) {
	cfg := offload.DefaultConfig()
	sys, err := offload.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := offload.StandardMix(sys.Src.Split())
	if err != nil {
		b.Fatal(err)
	}
	arr := workload.NewPoisson(sys.Src.Split(), 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.SubmitStream(arr, gen, 1)
		sys.Run()
	}
	if sys.Stats().Total() != uint64(b.N) {
		b.Fatalf("completed %d of %d", sys.Stats().Total(), b.N)
	}
}

// BenchmarkProfileCatalog profiles a five-component application.
func BenchmarkProfileCatalog(b *testing.B) {
	g := callgraph.ReportGen()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanApp(g, core.PlanOptions{
			Device:     device.Smartphone(),
			Serverless: serverless.LambdaLike(),
			CloudPath:  network.WiFiCloud(),
			Seed:       uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDecideEnv builds a full four-placement environment (device, edge,
// serverless, VM) for policy hot-path benchmarks, mirroring the substrates
// the scheduler sees in the experiments.
func benchDecideEnv(b *testing.B) *sched.Env {
	b.Helper()
	eng := sim.NewEngine()
	src := rng.New(42)
	pool := sched.NewFunctionPool(serverless.NewPlatform(eng, src.Split(), serverless.LambdaLike()))
	return &sched.Env{
		Eng:       eng,
		Device:    device.New(eng, device.Smartphone()),
		Edge:      edge.New(eng, edge.SmallSite()),
		EdgePath:  network.New(eng, src.Split(), network.LANEdge()),
		Functions: pool,
		CloudPath: network.New(eng, src.Split(), network.WiFiCloud()),
		VM:        cloudvm.New(eng, cloudvm.C5Large()),
	}
}

func benchDecideTask(i int) *model.Task {
	return &model.Task{
		ID: model.TaskID(i), App: "report-gen",
		InputBytes: model.MB, OutputBytes: 256 * model.KB,
		Cycles: 20e9, MemoryBytes: 512 * model.MB,
		ParallelFraction: 0.5, Deadline: 600,
	}
}

// BenchmarkDecideDeadlineAware measures the cost-model policy's Decide
// hot path: four placement estimates per call.
func BenchmarkDecideDeadlineAware(b *testing.B) {
	env := benchDecideEnv(b)
	p := sched.NewDeadlineAware()
	pred := sched.NewPerApp(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Decide(benchDecideTask(i), env, pred); got == model.PlaceUnknown {
			b.Fatal("no placement")
		}
	}
}

// BenchmarkDecideBanditUCB measures the contextual bandit's Decide hot
// path, with the observe half of the loop included so arm statistics keep
// evolving as they do in a live run.
func BenchmarkDecideBanditUCB(b *testing.B) {
	env := benchDecideEnv(b)
	c, err := adapt.NewBandit(adapt.BanditUCB, adapt.DefaultConfig(), rng.New(1), env)
	if err != nil {
		b.Fatal(err)
	}
	pred := sched.NewPerApp(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := benchDecideTask(i)
		placement := c.Decide(task, env, pred)
		c.OnEvent(trace.Event{Kind: trace.KindSettle, Outcome: model.Outcome{
			Task: task, Placement: placement,
			Started: 0, Finished: 2, CostUSD: 1e-4,
		}})
	}
}

// BenchmarkPerAppPredict measures the per-app EWMA demand predictor after
// it has converged on one application.
func BenchmarkPerAppPredict(b *testing.B) {
	pred := sched.NewPerApp(0.3)
	warm := benchDecideTask(0)
	for i := 0; i < 32; i++ {
		pred.Observe(warm, warm.Cycles)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := pred.PredictCycles(warm); got <= 0 {
			b.Fatal("non-positive prediction")
		}
	}
}

// BenchmarkServerlessInvoke measures simulated invocation overhead.
func BenchmarkServerlessInvoke(b *testing.B) {
	eng := sim.NewEngine()
	p := serverless.NewPlatform(eng, rng.New(1), serverless.LambdaLike())
	fn, err := p.Deploy(serverless.FunctionConfig{Name: "bench", MemoryBytes: 1792 * model.MB})
	if err != nil {
		b.Fatal(err)
	}
	task := &model.Task{Cycles: 1e9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn.Execute(task, func(model.ExecReport) {})
		eng.Run()
	}
}
