package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"offload/internal/callgraph"
	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/trace"
	"offload/internal/workload"
)

// runScenario implements `offctl run`: one offloading scenario — a task
// stream from the application templates, or a replayed JSONL trace,
// scheduled by a chosen policy over the simulated substrates — reporting
// completion times, money, energy and placements.
func runScenario(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var (
		policyFlag = fs.String("policy", "deadline-aware", "placement policy (list them with offctl policies)")
		appFlag    = fs.String("app", "", "single application template (default: five-template mix)")
		tasksFlag  = fs.Int("tasks", 500, "number of tasks")
		rateFlag   = fs.Float64("rate", 0.02, "Poisson arrival rate per second")
		seedFlag   = fs.Uint64("seed", 1, "RNG seed")
		noEdge     = fs.Bool("no-edge", false, "remove the edge site")
		noVM       = fs.Bool("no-vm", false, "remove the VM fleet")
		batchFlag  = fs.Int("batch", 0, "batch size for serverless tasks (0 = off)")
		budgetFlag = fs.Float64("budget", 0, "daily serverless budget in USD (0 = unlimited)")
		traceFlag  = fs.String("trace", "", "write a JSONL task trace to this file")
		replayFlag = fs.String("replay", "", "replay a JSONL task trace instead of generating a workload")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seedFlag
	cfg.Policy = core.PolicyName(*policyFlag)
	cfg.ArrivalRateHint = *rateFlag
	if *noEdge {
		cfg.Edge, cfg.EdgePath = nil, nil
	}
	if *noVM {
		cfg.VM = nil
	}
	if *batchFlag > 0 {
		cfg.Batch = &core.BatchConfig{Size: *batchFlag, MaxWait: 3600}
	}
	cfg.DailyBudgetUSD = *budgetFlag

	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	if *traceFlag != "" {
		rec = &trace.Recorder{}
		sys.Env.Events.Subscribe(rec)
	}

	label, tasks, rate := *policyFlag, *tasksFlag, *rateFlag
	if *replayFlag != "" {
		f, err := os.Open(*replayFlag)
		if err != nil {
			return err
		}
		records, err := trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := trace.Replay(sys.Eng, records, sys.Submit); err != nil {
			return err
		}
		label, tasks, rate = "replay:"+*replayFlag, len(records), 0
	} else {
		names := callgraph.TemplateNames()
		if *appFlag != "" {
			names = []string{*appFlag}
		}
		mix, err := workload.Mix(names...)
		if err != nil {
			return err
		}
		gen, err := workload.NewGenerator(sys.Src.Split(), mix)
		if err != nil {
			return err
		}
		sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), rate), gen, tasks)
	}
	sys.Run()
	printScenario(w, sys, label, tasks, rate)
	if rec == nil {
		return nil
	}
	f, err := os.Create(*traceFlag)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", *traceFlag, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d trace records to %s\n", rec.Len(), *traceFlag)
	return nil
}

// printScenario writes the run's metric, placement and (when the
// serverless platform served anything) platform tables.
func printScenario(w io.Writer, sys *core.System, label string, tasks int, rate float64) {
	st := sys.Stats()
	summary := metrics.NewTable(fmt.Sprintf("offctl run: %s, %d tasks at %g/s", label, tasks, rate),
		"metric", "value")
	summary.AddRowf("completed", fmt.Sprintf("%d", st.Completed))
	summary.AddRowf("failed", fmt.Sprintf("%d", st.Failed))
	summary.AddRowf("mean completion (s)", st.MeanCompletion())
	summary.AddRowf("p95 completion (s)", st.P95Completion())
	summary.AddRowf("deadline misses", fmt.Sprintf("%d (%.1f%%)", st.Missed, 100*st.MissRate()))
	summary.AddRowf("marginal cost ($/task)", st.CostPerTask())
	summary.AddRowf("infrastructure cost ($)", sys.InfrastructureCostUSD())
	summary.AddRowf("device energy (mJ/task)", st.EnergyPerTaskMilliJ())
	summary.AddRowf("virtual time (s)", float64(sys.Eng.Now()))
	summary.AddRowf("events fired", fmt.Sprintf("%d", sys.Eng.Fired()))
	fmt.Fprintln(w, summary.String())

	placements := metrics.NewTable("placements", "placement", "tasks")
	for _, p := range model.AllPlacements() {
		if n := st.ByPlacement[p]; n > 0 {
			placements.AddRow(p.String(), fmt.Sprintf("%d", n))
		}
	}
	fmt.Fprintln(w, placements.String())

	if p := sys.Platform(); p != nil && p.Stats().Invocations > 0 {
		ps := p.Stats()
		faas := metrics.NewTable("serverless platform", "metric", "value")
		faas.AddRowf("invocations", fmt.Sprintf("%d", ps.Invocations))
		faas.AddRowf("cold starts", fmt.Sprintf("%d (%.1f%%)", ps.ColdStarts,
			100*float64(ps.ColdStarts)/float64(ps.Invocations)))
		faas.AddRowf("billed ($)", ps.BilledUSD)
		fmt.Fprintln(w, faas.String())
	}
}
