// Command offctl is the developer-facing planning tool: it profiles an
// application graph, partitions it, allocates serverless resources and
// emits the deployment manifest — the offline half of the framework.
//
// Usage:
//
//	offctl plan -app sci-batch                 # plan a built-in template
//	offctl plan -spec app.json -out manifest.json
//	offctl profile -app ml-batch               # demand catalog only
//	offctl partition -app video-transcode      # partition only
//	offctl templates                           # list built-in templates
//	offctl policies                            # list placement policy names
//	offctl faults -config faults.json          # print composed fault stacks
//	offctl export -app report-gen              # dump a template's JSON spec
//	offctl trace analyze spans.jsonl           # critical-path attribution + waste
//	offctl trace chrome spans.jsonl out.json   # convert to Chrome trace format
//	offctl load -url http://host:9090 -rate 10000 -duration 10s   # drive offloadd
//	offctl scrape host:9090                    # pretty-print a /metrics endpoint
//	offctl dag -app video-transcode            # call graph → DAG job summary
//	offctl dag -shape fork-join -nodes 10 -dot # generated job as Graphviz DOT
//	offctl run -policy deadline-aware -tasks 1000 -rate 0.02
//	offctl run -app sci-batch -policy cloud-all -trace run.jsonl
//	offctl run -replay run.jsonl               # re-run a recorded task trace
//	offctl run -no-edge -no-vm                 # the serverless-only deployment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"offload/internal/callgraph"
	"offload/internal/core"
	"offload/internal/device"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/partition"
	"offload/internal/profile"
	"offload/internal/rng"
	"offload/internal/serverless"
	"offload/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	appFlag := fs.String("app", "", "built-in application template name")
	specFlag := fs.String("spec", "", "path to a JSON application spec")
	outFlag := fs.String("out", "", "write the manifest JSON to this file")
	seedFlag := fs.Uint64("seed", 1, "RNG seed")
	noiseFlag := fs.Float64("noise", 0.05, "relative profiling measurement noise")
	runsFlag := fs.Int("runs", 30, "profiling runs per component")
	dotFlag := fs.Bool("dot", false, "emit Graphviz DOT (partition/export)")

	switch cmd {
	case "trace":
		if err := runTrace(os.Args[2:], os.Stdout); err != nil {
			fail(err)
		}
		return
	case "faults":
		if err := runFaults(os.Args[2:], os.Stdout); err != nil {
			fail(err)
		}
		return
	case "load":
		if err := runLoad(os.Args[2:], os.Stdout); err != nil {
			fail(err)
		}
		return
	case "scrape":
		if err := runScrape(os.Args[2:], os.Stdout); err != nil {
			fail(err)
		}
		return
	case "dag":
		if err := runDAG(os.Args[2:], os.Stdout); err != nil {
			fail(err)
		}
		return
	case "run":
		if err := runScenario(os.Args[2:], os.Stdout); err != nil {
			fail(err)
		}
		return
	case "templates":
		templates := callgraph.Templates()
		for _, name := range callgraph.TemplateNames() {
			g := templates[name]
			fmt.Printf("%-16s %2d components, %.3g Gcycles/run\n",
				name, g.Len(), g.TotalCycles()/1e9)
		}
		return
	case "policies":
		for _, p := range core.AllPolicies() {
			fmt.Println(p)
		}
		return
	case "plan", "profile", "partition", "export", "simulate":
		if err := fs.Parse(os.Args[2:]); err != nil {
			os.Exit(2)
		}
	default:
		usage()
	}

	g, err := loadGraph(*appFlag, *specFlag)
	if err != nil {
		fail(err)
	}

	switch cmd {
	case "export":
		if *dotFlag {
			fmt.Print(g.DOT(nil))
			return
		}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(data))
		return

	case "profile":
		meter := profile.NewMeter(rng.New(*seedFlag), *noiseFlag)
		cat, err := profile.BuildCatalog(g, meter, *runsFlag)
		if err != nil {
			fail(err)
		}
		tbl := metrics.NewTable("demand catalog for "+g.Name(),
			"component", "mean_gcycles", "p95_gcycles", "memory_mb", "runs")
		for _, p := range cat.Profiles() {
			tbl.AddRowf(p.Name, p.MeanCycles/1e9, p.P95Cycles/1e9,
				fmt.Sprintf("%d", p.MemoryBytes/model.MB), fmt.Sprintf("%d", p.Runs))
		}
		fmt.Println(tbl.String())
		return

	case "partition":
		cm := core.CostModelFor(device.Smartphone(), serverless.LambdaLike(),
			serverless.LambdaLike().FullShareBytes, network.WiFiCloud(), core.DefaultWeights())
		res, err := partition.MinCut(g, cm)
		if err != nil {
			fail(err)
		}
		if *dotFlag {
			remote := make(map[string]bool)
			for _, name := range res.Remote(g) {
				remote[name] = true
			}
			fmt.Print(g.DOT(remote))
			return
		}
		fmt.Printf("app: %s\nobjective: %.6g\noffloaded: %v\n",
			g.Name(), res.Objective, res.Remote(g))
		fmt.Printf("all-local objective: %.6g, all-remote: %.6g\n",
			partition.Objective(g, cm, partition.AllLocal(g)),
			partition.Objective(g, cm, partition.AllRemote(g)))
		return

	case "plan":
		plan, err := core.PlanApp(g, core.PlanOptions{
			Device:       device.Smartphone(),
			Serverless:   serverless.LambdaLike(),
			CloudPath:    network.WiFiCloud(),
			Seed:         *seedFlag,
			ProfileRuns:  *runsFlag,
			ProfileNoise: *noiseFlag,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("app: %s\noffloaded components: %v\n", plan.App, plan.Remote)
		fmt.Printf("estimated serverless cost per run: $%.6g\n", plan.EstimatedCostPerRunUSD)
		tbl := metrics.NewTable("deployment manifest", "function", "component", "memory_mb")
		for _, fn := range plan.Manifest.Functions {
			tbl.AddRow(fn.Name, fn.Component, fmt.Sprintf("%d", fn.MemoryBytes/model.MB))
		}
		fmt.Println(tbl.String())
		if *outFlag != "" {
			data, err := plan.Manifest.Encode()
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(*outFlag, data, 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote manifest to %s\n", *outFlag)
		}
		return

	case "simulate":
		if err := simulatePlan(g, *seedFlag, *runsFlag, *noiseFlag); err != nil {
			fail(err)
		}
		return
	}
}

// simulatePlan plans the app, deploys the manifest onto a fresh simulated
// platform, and executes one run through the chain runner — the full
// offline-to-runtime journey in one command.
func simulatePlan(g *callgraph.Graph, seed uint64, runs int, noise float64) error {
	plan, results, err := core.SimulatePlan(g, core.PlanOptions{
		Seed:         seed,
		ProfileRuns:  runs,
		ProfileNoise: noise,
	}, 1)
	if err != nil {
		return err
	}
	res := results[0]
	fmt.Printf("app: %s (offloaded: %v)\n\n", plan.App, plan.Remote)
	tbl := metrics.NewTable("one simulated run", "component", "side", "start_s", "dur_s", "transfer_s", "usd")
	for _, cr := range res.Components {
		side := "device"
		if cr.Remote {
			side = "cloud"
		}
		tbl.AddRow(cr.Name, side,
			fmt.Sprintf("%.3f", float64(cr.Start)),
			fmt.Sprintf("%.3f", float64(cr.End.Sub(cr.Start))),
			fmt.Sprintf("%.3f", cr.TransferS),
			fmt.Sprintf("%.3g", cr.Exec.CostUSD))
	}
	fmt.Println(tbl.String())
	fmt.Printf("run: %.2f s end to end, $%.6g billed, %.0f mJ device energy, %d cut transfers (%d bytes)\n",
		float64(res.Duration()), res.CostUSD, res.EnergyMilliJ, res.CutEdges, res.BytesMoved)
	if res.Failed {
		return fmt.Errorf("run failed")
	}
	return nil
}

// runTrace dispatches the span-analysis subcommands, which read span
// archives rather than application specs.
func runTrace(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: offctl trace <analyze|chrome> <spans.jsonl> [out.json]")
	}
	switch args[0] {
	case "analyze":
		if len(args) != 2 {
			return fmt.Errorf("usage: offctl trace analyze <spans.jsonl>")
		}
		set, err := readSpans(args[1])
		if err != nil {
			return err
		}
		return traceAnalyze(set, w)
	case "chrome":
		if len(args) != 3 {
			return fmt.Errorf("usage: offctl trace chrome <spans.jsonl> <out.json>")
		}
		set, err := readSpans(args[1])
		if err != nil {
			return err
		}
		f, err := os.Create(args[2])
		if err != nil {
			return err
		}
		if err := set.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d spans to %s (open in chrome://tracing or ui.perfetto.dev)\n",
			len(set.Spans), args[2])
		return nil
	default:
		return fmt.Errorf("unknown trace subcommand %q (analyze|chrome)", args[0])
	}
}

func readSpans(path string) (*trace.SpanSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadSpansJSONL(f)
}

// traceAnalyze prints the run-level attribution: where completion time
// went per phase and placement, and what retries/hedges wasted.
func traceAnalyze(set *trace.SpanSet, w io.Writer) error {
	att := trace.Attribute(set)
	tasks := 0
	for _, g := range att.Groups {
		if g.Name == "all" {
			tasks = g.Tasks
		}
	}
	fmt.Fprintf(w, "run: %s  policy: %s  tasks: %d (%d failed)\n\n",
		orDash(set.Run), orDash(set.Policy), tasks+att.Failed, att.Failed)
	fmt.Fprintln(w, att.Table().String())
	fmt.Fprintln(w, trace.ComputeWaste(set).Table().String())
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func loadGraph(app, spec string) (*callgraph.Graph, error) {
	switch {
	case app != "" && spec != "":
		return nil, fmt.Errorf("use either -app or -spec, not both")
	case app != "":
		g, ok := callgraph.Templates()[app]
		if !ok {
			return nil, fmt.Errorf("unknown template %q (have %v)", app, callgraph.TemplateNames())
		}
		return g, nil
	case spec != "":
		data, err := os.ReadFile(spec)
		if err != nil {
			return nil, err
		}
		return callgraph.Parse(data)
	default:
		return nil, fmt.Errorf("one of -app or -spec is required")
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: offctl <command> [flags]

commands:
  plan        profile + partition + allocate, emit the deployment manifest
  profile     build the demand catalog for an application
  partition   compute the min-cut device/cloud split
  export      print a built-in template as a JSON spec
  simulate    plan, deploy and execute one run end to end
  templates   list built-in application templates
  policies    list placement policy names (static + adaptive)
  faults      print the composed fault-injector stack per backend
  trace       analyze a span archive (critical-path attribution, waste)
              or convert it to Chrome trace format
  load        drive an offloadd daemon at a target rate and report
              throughput, latency quantiles and shed rates
  scrape      fetch a Prometheus /metrics endpoint and show the top series
  dag         build a DAG job (from a call graph or the generator family)
              and print its structure as a table or Graphviz DOT
  run         simulate one scenario (policy, workload, rate, or a replayed
              JSONL trace) and report time, money, energy and placements`)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "offctl: %v\n", err)
	os.Exit(1)
}
