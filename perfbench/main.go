// Command perfbench is the repository's benchmark: three workloads that
// drive the offloading system from outside, through the public functions
// of its packages, and print the end-to-end metrics as one JSON line. With
// -trace 1 it prints the per-layer metrics instead, which also cover the
// offloadd daemon through its HTTP surface.
//
// Run it through run.sh from the repository root, which builds this
// command and the daemon first:
//
//	bash perfbench/run.sh --workload fleet-flash --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// env is what every workload gets: the run's parameters and the paths of
// the binaries run.sh built.
type env struct {
	seed     uint64
	seconds  time.Duration
	nproc    int
	outDir   string
	offloadd string // the daemon binary
	offbench string // the suite CLI, whose start-up suite-full times
	golden   string // the committed full-scale suite output
	goTool   string // the go command, for pprof's attribution tables
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int

	setupS    float64
	runS      float64
	tasksPerS float64
	allocMB   float64
	peakRSSMB float64
}

// fail records a failed operation or check. Failures are reported on
// stderr as they happen and make the run's result incorrect.
func (o *outcome) fail(err error) {
	o.failed++
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
}

// check counts one correctness check, failing it when err is non-nil.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.fail(err)
	}
}

// e2e returns the end-to-end metrics, keyed as BENCHMARK.json names them.
func (o *outcome) e2e() map[string]float64 {
	return map[string]float64{
		"setup_s":     o.setupS,
		"run_s":       o.runS,
		"tasks_per_s": o.tasksPerS,
		"alloc_mb":    o.allocMB,
		"peak_rss_mb": o.peakRSSMB,
	}
}

// pass is one measured pass of a workload: build and submit (set-up),
// then Run.
type pass struct {
	setup, run  time.Duration
	allocBytes  uint64 // heap bytes allocated by Run
	fingerprint string // what every pass of one seed must reproduce
}

// minPasses is the fewest passes a run measures, however short --seconds.
const minPasses = 3

// runPasses repeats one pass until the run's time is up and at least
// minPasses have been timed, checks every pass (one's error, and a
// fingerprint equal to the first pass's), and fills the end-to-end
// metrics from the medians. The first successful pass warms the process
// — heap grown, code paged in — and is checked but not timed. units is
// the work one pass settles, for tasks_per_s.
func runPasses(e *env, sp *spanRecorder, units float64, one func(parent uint64) (pass, error)) outcome {
	var out outcome
	var setups, runs, allocs, peaks []float64
	var first string
	warmed := false
	start := time.Now()
	for (len(runs) < minPasses && out.attempted < 3*minPasses) || time.Since(start) < e.seconds {
		root := sp.begin("pass", 0)
		var p pass
		var err error
		peak := peakRSSDuring(func() { p, err = one(root) })
		sp.end(root)
		if err == nil && warmed && p.fingerprint != first {
			err = fmt.Errorf("pass fingerprint %s differs from the first pass's %s", p.fingerprint, first)
		}
		out.check(err)
		if err != nil {
			continue
		}
		if !warmed {
			first, warmed = p.fingerprint, true
			continue
		}
		setups = append(setups, p.setup.Seconds())
		runs = append(runs, p.run.Seconds())
		allocs = append(allocs, float64(p.allocBytes)/(1<<20))
		peaks = append(peaks, peak)
	}
	if len(runs) > 0 {
		out.setupS = median(setups)
		out.runS = median(runs)
		out.tasksPerS = units / out.runS
		out.allocMB = median(allocs)
		out.peakRSSMB = median(peaks)
	}
	return out
}

type workloadFunc func(e *env, sp *spanRecorder) outcome

var workloads = map[string]workloadFunc{
	"fleet-flash":    fleetFlash,
	"stack-deadline": stackDeadline,
	"suite-full":     suiteFull,
}

// totalAlloc returns the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// rssSampleEvery is how often peakRSSDuring reads the resident set.
const rssSampleEvery = 2 * time.Millisecond

// peakRSSDuring runs fn and returns the largest resident set size, in MB,
// this process reached while it ran, sampled every rssSampleEvery. The
// kernel's own high-water mark covers the whole process lifetime, so the
// one pass whose garbage happened to peak highest would decide it; a
// per-pass peak lets the run report a median.
func peakRSSDuring(fn func()) float64 {
	stop := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		top := residentMB()
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peak <- max(top, residentMB())
				return
			case <-tick.C:
				top = max(top, residentMB())
			}
		}
	}()
	fn()
	close(stop)
	return <-peak
}

// residentMB reads this process's resident set size from /proc; 0 when
// it cannot.
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wl       = flag.String("workload", "", "workload: fleet-flash, stack-deadline or suite-full")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 10, "how long the measured phase runs")
		traced   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		outDir   = flag.String("out", ".bench_out", "directory for spans, profiles and result records")
		offloadd = flag.String("offloadd", ".bench_build/bin/offloadd", "the offloadd binary")
		offbench = flag.String("offbench", ".bench_build/bin/offbench", "the offbench binary")
		golden   = flag.String("golden", "results/offbench_full.txt", "the committed full-scale suite output")
		goTool   = flag.String("go", "go", "the go command, used for pprof attribution tables in traced runs")
		commit   = flag.String("commit", "unknown", "commit the binaries were built from, recorded with the result")
	)
	flag.Parse()
	fn, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	for _, p := range []string{*offloadd, *offbench, *golden} {
		if _, err := os.Stat(p); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		nproc:    runtime.NumCPU(),
		outDir:   *outDir,
		offloadd: *offloadd,
		offbench: *offbench,
		golden:   *golden,
		goTool:   *goTool,
	}
	meta := map[string]any{
		"workload": *wl, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"nproc": e.nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": *commit,
	}

	var (
		o      outcome
		values map[string]float64
		units  map[string]string
	)
	if *traced == 1 {
		o, values = tracedRun(e, *wl, fn)
		units = layerUnits
	} else {
		o = fn(e, nil)
		values = o.e2e()
		units = e2eUnits
	}
	res := resultOut{
		Correct:   o.failed == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   map[string]metricOut{},
	}
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: metric %s was not measured\n", name)
		}
		res.Metrics[name] = metricOut{Value: v, Unit: unit}
	}
	meta["result"] = res
	record := filepath.Join(e.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", *wl, *seed, *traced))
	if buf, err := json.MarshalIndent(meta, "", "  "); err == nil {
		if err := os.WriteFile(record, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	delete(meta, "result")
	env, _ := json.Marshal(meta)
	fmt.Printf("# env %s\n", env)
	printTable(values, units)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printTable prints every metric by name with its unit, one per line,
// ahead of the JSON result.
func printTable(values map[string]float64, units map[string]string) {
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-40s %14.6g %s\n", n, values[n], units[n])
	}
}

// e2eUnits lists the end-to-end metrics, as BENCHMARK.json declares them.
var e2eUnits = map[string]string{
	"setup_s":     "s",
	"run_s":       "s",
	"tasks_per_s": "1/s",
	"alloc_mb":    "MB",
	"peak_rss_mb": "MB",
}
