package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: offload/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEventScheduleFire-8   	79945828	        14.97 ns/op	       0 B/op	       0 allocs/op
BenchmarkEventScheduleFire-8   	81236142	        14.61 ns/op	       0 B/op	       0 allocs/op
BenchmarkEventChurn1k-8        	11818395	       101.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkE1_LatencyCliff       	     100	  10250000 ns/op
PASS
ok  	offload/internal/sim	4.521s
`

func TestParseLine(t *testing.T) {
	name, ns, bytes_, allocs, haveMem, ok := parseLine(
		"BenchmarkEventScheduleFire-8   \t79945828\t        14.97 ns/op\t       48 B/op\t       1 allocs/op")
	if !ok {
		t.Fatal("parseLine rejected a valid bench line")
	}
	if name != "BenchmarkEventScheduleFire" {
		t.Fatalf("name = %q, want cpu suffix stripped", name)
	}
	if ns != 14.97 || bytes_ != 48 || allocs != 1 || !haveMem {
		t.Fatalf("parsed ns=%v B=%v allocs=%v haveMem=%v", ns, bytes_, allocs, haveMem)
	}
}

func TestParseLineRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \toffload/internal/sim\t4.5s",
		"",
		"Benchmark", // no fields
		"BenchmarkX not-a-count 14 ns/op",
	} {
		if _, _, _, _, _, ok := parseLine(line); ok {
			t.Fatalf("parseLine accepted %q", line)
		}
	}
}

func TestParseAccumulates(t *testing.T) {
	set := &Set{Benchmarks: map[string]*Samples{}}
	if err := parse(strings.NewReader(sampleOutput), set); err != nil {
		t.Fatal(err)
	}
	s := set.Benchmarks["BenchmarkEventScheduleFire"]
	if s == nil || len(s.NsPerOp) != 2 {
		t.Fatalf("ScheduleFire samples = %+v, want 2 runs", s)
	}
	// A bench without -benchmem columns parses with ns only.
	e1 := set.Benchmarks["BenchmarkE1_LatencyCliff"]
	if e1 == nil || len(e1.NsPerOp) != 1 || len(e1.AllocsPerOp) != 0 {
		t.Fatalf("E1 samples = %+v, want 1 ns sample and no mem columns", e1)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Fatalf("median empty = %v, want NaN", got)
	}
}

func samplesOf(ns []float64, allocs float64) *Samples {
	a := make([]float64, len(ns))
	b := make([]float64, len(ns))
	for i := range a {
		a[i] = allocs
	}
	return &Samples{NsPerOp: ns, BytesPerOp: b, AllocsPerOp: a}
}

func TestGateFailsOnAllocIncrease(t *testing.T) {
	old := &Set{Benchmarks: map[string]*Samples{"BenchmarkX": samplesOf([]float64{10, 11}, 0)}}
	head := &Set{Benchmarks: map[string]*Samples{"BenchmarkX": samplesOf([]float64{10, 11}, 1)}}
	findings := gate(old, head, false, 15)
	if len(findings) != 1 || !strings.Contains(findings[0].Reason, "zero-allocation") {
		t.Fatalf("findings = %+v, want one alloc-contract failure", findings)
	}
}

func TestGateIgnoresAllocChurnAboveZero(t *testing.T) {
	// A baseline that allocates 3 or 4 times per op: a head whose median
	// is 4 churns within the baseline's range and passes.
	old := &Set{Benchmarks: map[string]*Samples{"BenchmarkX": {
		NsPerOp: []float64{10, 10, 10}, BytesPerOp: []float64{0, 0, 0}, AllocsPerOp: []float64{3, 4, 3}}}}
	head := &Set{Benchmarks: map[string]*Samples{"BenchmarkX": samplesOf([]float64{10}, 4)}}
	if findings := gate(old, head, false, 15); len(findings) != 0 {
		t.Fatalf("findings = %+v, want none", findings)
	}
}

func TestGateFailsOnAllocIncreaseAboveBaselineMax(t *testing.T) {
	// 3 → 4 allocs on a row that never allocated 4 times: the count grew.
	old := &Set{Benchmarks: map[string]*Samples{"BenchmarkX": samplesOf([]float64{10, 11}, 3)}}
	head := &Set{Benchmarks: map[string]*Samples{"BenchmarkX": {
		NsPerOp: []float64{10, 10, 10}, BytesPerOp: []float64{0, 0, 0}, AllocsPerOp: []float64{3, 4, 4}}}}
	findings := gate(old, head, false, 15)
	if len(findings) != 1 || !strings.Contains(findings[0].Reason, "largest sample 3") {
		t.Fatalf("findings = %+v, want one alloc-count failure", findings)
	}
	// One sample above the baseline's largest does not move the median.
	head.Benchmarks["BenchmarkX"].AllocsPerOp = []float64{3, 3, 4}
	if findings := gate(old, head, false, 15); len(findings) != 0 {
		t.Fatalf("findings = %+v, want none for a median within the baseline", findings)
	}
}

func TestGateNsRegressionNonOverlapping(t *testing.T) {
	old := &Set{Benchmarks: map[string]*Samples{"BenchmarkX": samplesOf([]float64{100, 101, 102}, 0)}}
	head := &Set{Benchmarks: map[string]*Samples{"BenchmarkX": samplesOf([]float64{130, 131, 132}, 0)}}
	findings := gate(old, head, true, 15)
	if len(findings) != 1 || !strings.Contains(findings[0].Reason, "ns/op regressed") {
		t.Fatalf("findings = %+v, want one ns regression", findings)
	}
	// Without -ns the same data passes: ns gating is same-machine only.
	if findings := gate(old, head, false, 15); len(findings) != 0 {
		t.Fatalf("alloc-only gate flagged an ns change: %+v", findings)
	}
}

func TestGateNsOverlappingRangesAreNoise(t *testing.T) {
	// Median regression is >15% but the sample ranges overlap, so it's
	// indistinguishable from machine noise and must pass.
	old := &Set{Benchmarks: map[string]*Samples{"BenchmarkX": samplesOf([]float64{100, 100, 140}, 0)}}
	head := &Set{Benchmarks: map[string]*Samples{"BenchmarkX": samplesOf([]float64{130, 131, 132}, 0)}}
	if findings := gate(old, head, true, 15); len(findings) != 0 {
		t.Fatalf("findings = %+v, want none for overlapping ranges", findings)
	}
}

func TestGateImprovementPasses(t *testing.T) {
	old := &Set{Benchmarks: map[string]*Samples{"BenchmarkX": samplesOf([]float64{100}, 1)}}
	head := &Set{Benchmarks: map[string]*Samples{"BenchmarkX": samplesOf([]float64{50}, 0)}}
	if findings := gate(old, head, true, 15); len(findings) != 0 {
		t.Fatalf("findings = %+v, want none for an improvement", findings)
	}
}

func TestGateSkipsUnmatchedBenchmarks(t *testing.T) {
	old := &Set{Benchmarks: map[string]*Samples{}}
	head := &Set{Benchmarks: map[string]*Samples{"BenchmarkNew": samplesOf([]float64{10}, 5)}}
	if findings := gate(old, head, true, 15); len(findings) != 0 {
		t.Fatalf("findings = %+v, want none for a brand-new benchmark", findings)
	}
}

func TestGateFlagsBaselineRowMissingFromHead(t *testing.T) {
	old := &Set{Benchmarks: map[string]*Samples{
		"BenchmarkKept": samplesOf([]float64{10}, 0),
		"BenchmarkGone": samplesOf([]float64{10}, 0),
	}}
	head := &Set{Benchmarks: map[string]*Samples{"BenchmarkKept": samplesOf([]float64{10}, 0)}}
	findings := gate(old, head, false, 15)
	if len(findings) != 1 || findings[0].Bench != "BenchmarkGone" {
		t.Fatalf("findings = %+v, want one for BenchmarkGone", findings)
	}
}

// TestEmitGateRoundTrip drives the CLI end to end: emit a baseline and a
// regressed head from raw bench output, then gate them.
func TestEmitGateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(raw, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}

	var base bytes.Buffer
	if code := run([]string{"-emit", raw}, nil, &base, os.Stderr); code != 0 {
		t.Fatalf("emit exited %d", code)
	}
	basePath := filepath.Join(dir, "base.json")
	if err := os.WriteFile(basePath, base.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Same data gated against itself: clean pass.
	var out bytes.Buffer
	if code := run([]string{"-old", basePath, "-new", basePath, "-ns"}, nil, &out, os.Stderr); code != 0 {
		t.Fatalf("self-gate exited %d: %s", code, out.String())
	}

	// A head where the zero-alloc bench now allocates: gate fails.
	regressed := strings.ReplaceAll(sampleOutput,
		"101.3 ns/op\t       0 B/op\t       0 allocs/op",
		"101.3 ns/op\t      48 B/op\t       1 allocs/op")
	rawBad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(rawBad, []byte(regressed), 0o644); err != nil {
		t.Fatal(err)
	}
	var head bytes.Buffer
	if code := run([]string{"-emit", rawBad}, nil, &head, os.Stderr); code != 0 {
		t.Fatalf("emit exited %d", code)
	}
	headPath := filepath.Join(dir, "head.json")
	if err := os.WriteFile(headPath, head.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-old", basePath, "-new", headPath}, nil, &out, os.Stderr); code != 1 {
		t.Fatalf("gate exited %d, want 1; output: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkEventChurn1k") {
		t.Fatalf("gate output missing the regressed bench: %s", out.String())
	}
}

func TestPrintBench(t *testing.T) {
	set := &Set{Benchmarks: map[string]*Samples{
		"BenchmarkX": samplesOf([]float64{10.5, 11}, 0),
	}}
	var buf bytes.Buffer
	printBench(&buf, set)
	want := "BenchmarkX 1 10.5 ns/op 0 B/op 0 allocs/op\nBenchmarkX 1 11 ns/op 0 B/op 0 allocs/op\n"
	if buf.String() != want {
		t.Fatalf("printBench:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestTrimCPUSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":        "BenchmarkX",
		"BenchmarkX-16":       "BenchmarkX",
		"BenchmarkX":          "BenchmarkX",
		"BenchmarkE1_Cliff-4": "BenchmarkE1_Cliff",
		"BenchmarkX-abc":      "BenchmarkX-abc",
	} {
		if got := trimCPUSuffix(in); got != want {
			t.Fatalf("trimCPUSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}
