// Command benchgate parses `go test -bench` output and gates performance
// regressions against a committed baseline. It exists because the repo's
// hot paths (the event kernel, metric touches, span recording) carry
// allocation and latency contracts that a human reviewer cannot check by
// eye across every PR.
//
// Three modes:
//
//	benchgate -emit out.txt > bench.json
//	    Parse one or more bench-output files (or stdin) into a JSON
//	    sample set, keyed by benchmark name with per-run samples.
//
//	benchgate -old base.json -new head.json [-ns] [-threshold 15]
//	    Gate: fail (exit 1) if a benchmark whose baseline allocs/op is
//	    zero now allocates, or if one whose baseline allocates now has a
//	    median allocs/op above the baseline's largest sample — allocation
//	    counts are machine-independent — or if a baseline benchmark is
//	    missing from the head run. With
//	    -ns, additionally fail on a median ns/op regression beyond the
//	    threshold where the sample ranges do not overlap; only valid
//	    when both sides ran on the same machine.
//
//	benchgate -print-bench bench.json
//	    Render the JSON back into benchstat-compatible bench lines.
//
// The tool is dependency-free on purpose: it runs in CI before anything
// is installed, and `go install benchstat` remains optional garnish for
// the human-readable comparison.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Samples holds every parsed run of one benchmark.
type Samples struct {
	NsPerOp     []float64 `json:"ns_per_op"`
	BytesPerOp  []float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp []float64 `json:"allocs_per_op,omitempty"`
}

// Set is the JSON document: benchmark name → samples. Names are stored
// without the -<GOMAXPROCS> suffix so baselines compare across machines.
type Set struct {
	Benchmarks map[string]*Samples `json:"benchmarks"`
}

// parseLine parses one bench output line; ok is false for non-bench lines.
// A line looks like:
//
//	BenchmarkEventScheduleFire-8   79945828   14.97 ns/op   0 B/op   0 allocs/op
func parseLine(line string) (name string, ns, bytes, allocs float64, haveMem bool, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return
	}
	name = trimCPUSuffix(f[0])
	// f[1] is the iteration count; values follow as "<num> <unit>" pairs.
	if _, err := strconv.Atoi(f[1]); err != nil {
		return
	}
	vals := map[string]float64{}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return
		}
		vals[f[i+1]] = v
	}
	ns, ok = vals["ns/op"]
	if !ok {
		return
	}
	bytes, haveMem = vals["B/op"]
	allocs = vals["allocs/op"]
	return name, ns, bytes, allocs, haveMem, true
}

// trimCPUSuffix strips the trailing -<n> GOMAXPROCS marker from a
// benchmark name.
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parse reads bench output and accumulates samples per benchmark.
func parse(r io.Reader, set *Set) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		name, ns, bytes, allocs, haveMem, ok := parseLine(line)
		if !ok {
			continue
		}
		s := set.Benchmarks[name]
		if s == nil {
			s = &Samples{}
			set.Benchmarks[name] = s
		}
		s.NsPerOp = append(s.NsPerOp, ns)
		if haveMem {
			s.BytesPerOp = append(s.BytesPerOp, bytes)
			s.AllocsPerOp = append(s.AllocsPerOp, allocs)
		}
	}
	return nil
}

// median returns the middle sample (mean of the middle two for even n),
// or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return
}

// Finding is one gate violation.
type Finding struct {
	Bench  string
	Reason string
}

// gate compares head samples against a baseline. Alloc contracts always
// apply: a benchmark whose baseline allocs/op median is zero must stay at
// zero, and any other must keep its median allocs/op within the
// baseline's largest sample. With gateNs, a median ns/op regression beyond thresholdPct where
// the sample ranges do not overlap also fails; overlapping ranges are
// treated as noise, which keeps small sample counts from flapping. A
// baseline row the head run no longer produces is a finding too, so a
// renamed or deleted benchmark cannot drop its contract unnoticed.
func gate(old, new_ *Set, gateNs bool, thresholdPct float64) []Finding {
	var findings []Finding
	names := make([]string, 0, len(old.Benchmarks))
	for name := range old.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		os_ := old.Benchmarks[name]
		ns, ok := new_.Benchmarks[name]
		if !ok {
			findings = append(findings, Finding{name,
				"baseline row missing from the head run: the benchmark was renamed, deleted or not run"})
			continue
		}
		if len(os_.AllocsPerOp) > 0 && len(ns.AllocsPerOp) > 0 {
			oa, na := median(os_.AllocsPerOp), median(ns.AllocsPerOp)
			_, oldHi := minMax(os_.AllocsPerOp)
			switch {
			case oa == 0 && na > 0:
				findings = append(findings, Finding{name, fmt.Sprintf(
					"allocs/op regressed from 0 to %g: the zero-allocation contract is broken", na)})
			case na > oldHi:
				findings = append(findings, Finding{name, fmt.Sprintf(
					"median allocs/op %g exceeds the baseline's largest sample %g", na, oldHi)})
			}
		}
		if gateNs && len(os_.NsPerOp) > 0 && len(ns.NsPerOp) > 0 {
			om, nm := median(os_.NsPerOp), median(ns.NsPerOp)
			if nm > om*(1+thresholdPct/100) {
				_, oldHi := minMax(os_.NsPerOp)
				newLo, _ := minMax(ns.NsPerOp)
				if newLo > oldHi {
					findings = append(findings, Finding{name, fmt.Sprintf(
						"median ns/op regressed %.1f%% (%.4g -> %.4g) with non-overlapping ranges",
						(nm/om-1)*100, om, nm)})
				}
			}
		}
	}
	return findings
}

// printBench renders a Set as benchstat-compatible lines, sorted by name.
// The iteration count is synthesised (benchstat ignores it).
func printBench(w io.Writer, set *Set) {
	names := make([]string, 0, len(set.Benchmarks))
	for name := range set.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := set.Benchmarks[name]
		for i, ns := range s.NsPerOp {
			fmt.Fprintf(w, "%s 1 %g ns/op", name, ns)
			if i < len(s.BytesPerOp) && i < len(s.AllocsPerOp) {
				fmt.Fprintf(w, " %g B/op %g allocs/op", s.BytesPerOp[i], s.AllocsPerOp[i])
			}
			fmt.Fprintln(w)
		}
	}
}

func readSet(path string) (*Set, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &Set{Benchmarks: map[string]*Samples{}}
	if err := json.Unmarshal(buf, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	var (
		emit       bool
		printB     string
		oldPath    string
		newPath    string
		gateNs     bool
		threshold  = 15.0
		files      []string
		parseFloat = func(s string) (float64, bool) {
			v, err := strconv.ParseFloat(s, 64)
			return v, err == nil
		}
	)
	for i := 0; i < len(args); i++ {
		switch a := args[i]; a {
		case "-emit":
			emit = true
		case "-ns":
			gateNs = true
		case "-print-bench", "-old", "-new", "-threshold":
			if i+1 >= len(args) {
				fmt.Fprintf(stderr, "benchgate: %s needs a value\n", a)
				return 2
			}
			i++
			switch a {
			case "-print-bench":
				printB = args[i]
			case "-old":
				oldPath = args[i]
			case "-new":
				newPath = args[i]
			case "-threshold":
				v, ok := parseFloat(args[i])
				if !ok {
					fmt.Fprintf(stderr, "benchgate: bad -threshold %q\n", args[i])
					return 2
				}
				threshold = v
			}
		default:
			if strings.HasPrefix(a, "-") {
				fmt.Fprintf(stderr, "benchgate: unknown flag %q\n", a)
				return 2
			}
			files = append(files, a)
		}
	}

	switch {
	case emit:
		set := &Set{Benchmarks: map[string]*Samples{}}
		if len(files) == 0 {
			if err := parse(stdin, set); err != nil {
				fmt.Fprintf(stderr, "benchgate: %v\n", err)
				return 1
			}
		}
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(stderr, "benchgate: %v\n", err)
				return 1
			}
			err = parse(f, set)
			f.Close()
			if err != nil {
				fmt.Fprintf(stderr, "benchgate: %v\n", err)
				return 1
			}
		}
		if len(set.Benchmarks) == 0 {
			fmt.Fprintln(stderr, "benchgate: no benchmark lines found")
			return 1
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(set)
		return 0

	case printB != "":
		set, err := readSet(printB)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 1
		}
		printBench(stdout, set)
		return 0

	case oldPath != "" && newPath != "":
		oldSet, err := readSet(oldPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 1
		}
		newSet, err := readSet(newPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 1
		}
		findings := gate(oldSet, newSet, gateNs, threshold)
		for _, f := range findings {
			fmt.Fprintf(stdout, "FAIL %s: %s\n", f.Bench, f.Reason)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "benchgate: %d regression(s)\n", len(findings))
			return 1
		}
		fmt.Fprintln(stdout, "benchgate: ok")
		return 0
	}

	fmt.Fprintln(stderr, "usage: benchgate -emit [file...] | -old base.json -new head.json [-ns] [-threshold pct] | -print-bench set.json")
	return 2
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
