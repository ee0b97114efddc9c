package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The ladder stream: every rung runs the same seeded stream of this many
// tasks, ladderRepeats times. Host time keeps the fastest repeat, the
// least disturbed by other work on the machine; allocation counts keep
// the median.
const (
	ladderTasks   = 20_000
	ladderRepeats = 5
)

// spanKinds are the benchmark's span names whose self time the traced run
// reports; http.* spans fold into "http".
var spanKinds = []string{"setup", "submit", "run", "summarise", "export", "http", "server.submit", "loop.call"}

// layerUnits lists the per-layer metrics, as BENCHMARK.json declares them.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"sim.events":                        "count",
		"sim.events_per_s":                  "1/s",
		"sim.windows":                       "count",
		"sim.events_per_window":             "count",
		"sim.hub_event_share":               "ratio",
		"sim.shard_imbalance":               "ratio",
		"sim.shard_speedup":                 "ratio",
		"sim.loop_call_p50_ms":              "ms",
		"sim.loop_call_p90_ms":              "ms",
		"sched.attempts_per_task":           "ratio",
		"sched.hedge_win_share":             "ratio",
		"serverless.invocations.fleet":      "count",
		"serverless.cold_start_share.fleet": "ratio",
		"serverless.invocations.stack":      "count",
		"serverless.cold_start_share.stack": "ratio",
		"trace.spans":                       "count",
		"trace.export_ms":                   "ms",
		"trace.overhead_share":              "ratio",
		"metrics.registry_ms":               "ms",
		"metrics.prom_write_ms":             "ms",
		"metrics.prom_bytes":                "B",
		"offloadd.setup_s":                  "s",
		"offloadd.p50_ms":                   "ms",
		"offloadd.p90_ms":                   "ms",
		"offloadd.read_p50_ms":              "ms",
		"offloadd.max_rps":                  "1/s",
		"offloadd.peak_rss_mb":              "MB",
		"offloadd.scrape_p50_ms":            "ms",
		"offloadd.http_p50_ms":              "ms",
		"offloadd.accepted":                 "count",
		"offloadd.shed":                     "count",
		"core.server.submit_p50_us":         "us",
		"core.server.submit_p90_us":         "us",
		"driver.gen_late_ms":                "ms",
	}
	for _, l := range ladderLayers {
		u[l+".ns_per_task"] = "ns"
		u[l+".allocs_per_task"] = "count"
		u[l+".bytes_per_task"] = "B"
	}
	for _, e := range suiteExperiments() {
		u["exp."+e.ID+".wall_s"] = "s"
		u["exp."+e.ID+".alloc_mb"] = "MB"
	}
	for _, k := range spanKinds {
		u["span."+k+".self_ms"] = "ms"
	}
	return u
}()

// tracedRun is a -trace 1 run: the workload once untraced and once with
// the benchmark's spans on (their difference is the tracing overhead),
// then the layer sweep, which measures every per-layer metric whatever the
// workload, so every traced run reports the same set.
func tracedRun(e *env, name string, fn workloadFunc) (outcome, map[string]float64) {
	plain := fn(e, nil)
	sp := newSpanRecorder()
	traced := fn(e, sp)
	layer, sweepOut := sweep(e, sp)

	out := outcome{
		attempted: plain.attempted + traced.attempted + sweepOut.attempted,
		failed:    plain.failed + traced.failed + sweepOut.failed,
	}
	if plain.runS > 0 {
		layer["trace.overhead_share"] = traced.runS/plain.runS - 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: tracing overhead on %s: run %.4g s untraced, %.4g s traced\n",
		name, plain.runS, traced.runS)

	spans := sp.snapshot()
	self := selfTimes(spans)
	for _, k := range spanKinds {
		layer["span."+k+".self_ms"] = 0
	}
	for n, v := range self {
		if strings.HasPrefix(n, "http.") {
			n = "http"
		}
		if _, ok := layerUnits["span."+n+".self_ms"]; ok {
			layer["span."+n+".self_ms"] += v
		}
	}
	path := filepath.Join(e.outDir, "spans-"+name+".jsonl")
	if err := sp.writeJSONL(path); err != nil {
		out.fail(err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return out, layer
}

// sweep measures every layer: the fleet on one and on nproc shards, the
// full stack once plus the layer ladder, the suite serially, the serve
// path in process, and the daemon under the open-loop driver. CPU and
// allocation profiles cover the fleet, the stack, the suite and the
// in-process serve path.
func sweep(e *env, sp *spanRecorder) (map[string]float64, outcome) {
	var out outcome
	m := map[string]float64{}
	prof := func(name string, fn func()) {
		if err := profiled(e.outDir, e.goTool, name, fn); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: profile:", err)
		}
	}

	// sim and the sharded fleet.
	one, err := runFleetPass(e.seed, 1, sp, 0)
	out.check(err)
	var many fleetPass
	prof("fleet-flash", func() { many, err = runFleetPass(e.seed, e.nproc, sp, 0) })
	out.check(err)
	if one.fingerprint != many.fingerprint {
		out.fail(fmt.Errorf("fleet-flash: 1 shard gives %s, %d shards give %s",
			one.fingerprint, e.nproc, many.fingerprint))
	}
	m["sim.events"] = float64(many.events)
	m["sim.events_per_s"] = float64(many.events) / many.run.Seconds()
	m["sim.windows"] = float64(many.windows)
	m["sim.events_per_window"] = float64(many.events) / float64(max(many.windows, 1))
	m["sim.hub_event_share"] = float64(many.hubEvents) / float64(max(many.events, 1))
	var busiest, sum uint64
	for _, n := range many.shardEvents {
		busiest = max(busiest, n)
		sum += n
	}
	m["sim.shard_imbalance"] = float64(busiest) / (float64(sum) / float64(len(many.shardEvents)))
	m["sim.shard_speedup"] = one.run.Seconds() / many.run.Seconds()
	m["serverless.invocations.fleet"] = float64(many.invocations)
	m["serverless.cold_start_share.fleet"] = many.coldShare

	// The full stack, its exports, and the ladder.
	var sp1 stackPass
	prof("stack-deadline", func() { sp1, err = runStackPass(e.seed, stackTasks, sp, 0) })
	out.check(err)
	if err == nil {
		st := sp1.stats
		settled := float64(st.Completed + st.Failed)
		m["sched.attempts_per_task"] = (settled + float64(st.Retries+st.Hedges)) / settled
		if st.Hedges > 0 {
			m["sched.hedge_win_share"] = float64(st.HedgeWins) / float64(st.Hedges)
		} else {
			m["sched.hedge_win_share"] = 0
		}
		m["serverless.invocations.stack"] = float64(sp1.invocations)
		m["serverless.cold_start_share.stack"] = sp1.coldShare
		m["trace.spans"] = float64(len(sp1.spans.Spans))
		sp.do("export", 0, func(uint64) {
			t0 := time.Now()
			err = writeSpanExports(e.outDir, sp1)
			m["trace.export_ms"] = ms(time.Since(t0))
		})
		out.check(err)
	}
	ladder, err := runLadder(e.seed)
	out.check(err)
	for _, c := range marginal(ladder) {
		m[c.Layer+".ns_per_task"] = c.NS
		m[c.Layer+".allocs_per_task"] = c.Allocs
		m[c.Layer+".bytes_per_task"] = c.Bytes
	}

	// The suite, serially, so per-experiment allocation is exact.
	var suite suitePass
	prof("suite-full", func() { suite, err = runSuitePass(1, sp, 0) })
	if err == nil {
		err = checkGolden(e.golden, suite.sections)
	}
	out.check(err)
	for _, res := range suite.results {
		m["exp."+res.ID+".wall_s"] = res.Elapsed.Seconds()
		m["exp."+res.ID+".alloc_mb"] = float64(res.AllocBytes) / (1 << 20)
	}

	// The serve path in process, then through the daemon.
	var inproc map[string]float64
	prof("serve-inproc", func() { inproc, err = inprocServe(e.seed, sp) })
	out.check(err)
	for k, v := range inproc {
		m[k] = v
	}
	for k, v := range serveLayer(e, sp, &out) {
		m[k] = v
	}
	m["offloadd.http_p50_ms"] = m["offloadd.p50_ms"] - m["core.server.submit_p50_us"]/1e3
	return m, out
}

// writeSpanExports writes the stack pass's simulated spans as span JSONL
// and as a Chrome trace, the two files offbench -spans writes per cell.
func writeSpanExports(dir string, p stackPass) error {
	for name, write := range map[string]func(*os.File) error{
		"stack-spans.jsonl": func(f *os.File) error { return p.spans.WriteJSONL(f) },
		"stack-trace.json":  func(f *os.File) error { return p.spans.WriteChromeTrace(f) },
	} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runLadder measures every rung of the layer ladder on one seeded stream:
// host time (the fastest of ladderRepeats runs), allocations and
// allocated bytes per task (the median), each run covering build, submit
// and Run. The repeats go round the rungs in turn, so a slow spell on the
// machine lands on every rung alike instead of on one rung's repeats.
func runLadder(seed uint64) ([]layerCost, error) {
	ns := make([][]float64, len(ladderLayers))
	allocs := make([][]float64, len(ladderLayers))
	bytes := make([][]float64, len(ladderLayers))
	for range ladderRepeats {
		for level, name := range ladderLayers {
			runtime.GC()
			a0, b0 := mallocs(), totalAlloc()
			t0 := time.Now()
			if level == 0 {
				n, err := engineOnly(seed, ladderTasks)
				if err != nil {
					return nil, err
				}
				if n != ladderTasks {
					return nil, fmt.Errorf("ladder rung %s: %d tasks arrived, want %d", name, n, ladderTasks)
				}
			} else {
				sys, err := buildStack(seed, level, ladderTasks)
				if err != nil {
					return nil, fmt.Errorf("ladder rung %s: %w", name, err)
				}
				sys.Run()
				if st := sys.Stats(); st.Completed+st.Failed != ladderTasks {
					return nil, fmt.Errorf("ladder rung %s: %v", name,
						checkConservation(st.Completed, st.Failed, ladderTasks))
				}
			}
			d := time.Since(t0)
			ns[level] = append(ns[level], float64(d.Nanoseconds())/ladderTasks)
			allocs[level] = append(allocs[level], float64(mallocs()-a0)/ladderTasks)
			bytes[level] = append(bytes[level], float64(totalAlloc()-b0)/ladderTasks)
		}
	}
	out := make([]layerCost, len(ladderLayers))
	for level, name := range ladderLayers {
		out[level] = layerCost{Layer: name, NS: quantile(ns[level], 0), Allocs: median(allocs[level]), Bytes: median(bytes[level])}
	}
	return out, nil
}
