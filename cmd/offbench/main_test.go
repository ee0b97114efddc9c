package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"offload/internal/exp"
	"offload/internal/metrics"
)

// fakeRegistry is a tiny stand-in suite: two healthy experiments and an
// optional failing or panicking one, fast enough to run many times.
func fakeRegistry(fail, panics bool) []exp.Experiment {
	ok := func(id string, seq int) exp.Experiment {
		return exp.Experiment{ID: id, Seq: seq, Claim: id + " claim",
			Run: func(s exp.Scale) ([]*metrics.Table, error) {
				tbl := metrics.NewTable(id+" table", "seed", "tasks")
				tbl.Add(s.Seed, s.Tasks)
				return []*metrics.Table{tbl}, nil
			}}
	}
	reg := []exp.Experiment{ok("F1", 0), ok("F2", 1)}
	if fail {
		reg = append(reg, exp.Experiment{ID: "F3", Seq: 2, Claim: "always fails",
			Run: func(s exp.Scale) ([]*metrics.Table, error) {
				return nil, errors.New("injected failure")
			}})
	}
	if panics {
		reg = append(reg, exp.Experiment{ID: "F4", Seq: 3, Claim: "always panics",
			Run: func(s exp.Scale) ([]*metrics.Table, error) {
				panic("injected panic")
			}})
	}
	return reg
}

func TestRunSucceeds(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scale", "quick", "-csv"}, fakeRegistry(false, false), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"### F1 — F1 claim", "### F2 — F2 claim", "# F1 table"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "F1") {
		t.Errorf("stderr carries no progress lines:\n%s", stderr.String())
	}
}

func TestRunExitsNonZeroOnExperimentError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scale", "quick", "-parallel", "1"}, fakeRegistry(true, false), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "injected failure") {
		t.Errorf("stderr does not name the failure:\n%s", stderr.String())
	}
	// The healthy experiments' tables still print before the non-zero exit.
	if !strings.Contains(stdout.String(), "### F1") {
		t.Errorf("partial results were discarded:\n%s", stdout.String())
	}
}

func TestRunExitsNonZeroOnPanic(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scale", "quick", "-parallel", "1"}, fakeRegistry(false, true), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "injected panic") {
		t.Errorf("stderr does not surface the panic:\n%s", stderr.String())
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	// Same seed, different worker counts: stdout must be byte-identical.
	// Uses the real registry restricted to fast experiments; CI runs the
	// same check over the full suite.
	var want string
	for _, parallel := range []string{"1", "4", "16"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-scale", "quick", "-csv", "-seed", "7",
			"-exp", "E2,E3,E16", "-parallel", parallel, "-quiet"},
			exp.Registry(), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("parallel=%s: exit %d, stderr: %s", parallel, code, stderr.String())
		}
		if want == "" {
			want = stdout.String()
			continue
		}
		if stdout.String() != want {
			t.Fatalf("parallel=%s stdout differs from parallel=1", parallel)
		}
	}
}

func TestRunSelectsAndOrders(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scale", "quick", "-exp", "F2,F1"}, fakeRegistry(false, false), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	out := stdout.String()
	if !strings.Contains(out, "F2") || strings.Index(out, "### F2") > strings.Index(out, "### F1") {
		t.Errorf("selection order not preserved:\n%s", out)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "F9"}, fakeRegistry(false, false), &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestRunRejectsUnknownScale(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "huge"}, fakeRegistry(false, false), &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestRunMetricsExport: -metrics writes per-cell time series and a merged
// registry per experiment, byte-identical across -parallel values, without
// changing stdout.
func TestRunMetricsExport(t *testing.T) {
	readAll := func(dir string) map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string]string, len(entries))
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	var plain bytes.Buffer
	if code := run([]string{"-scale", "quick", "-csv", "-seed", "3", "-exp", "E1,E12", "-quiet"},
		exp.Registry(), &plain, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var got map[string]string
	for _, parallel := range []string{"1", "4"} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		code := run([]string{"-scale", "quick", "-csv", "-seed", "3", "-exp", "E1,E12",
			"-parallel", parallel, "-quiet", "-metrics", dir},
			exp.Registry(), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("parallel=%s: exit %d, stderr: %s", parallel, code, stderr.String())
		}
		if stdout.String() != plain.String() {
			t.Fatal("-metrics changed stdout")
		}
		files := readAll(dir)
		if got == nil {
			got = files
			continue
		}
		if len(files) != len(got) {
			t.Fatalf("parallel=%s wrote %d files, parallel=1 wrote %d", parallel, len(files), len(got))
		}
		for name, content := range files {
			if got[name] != content {
				t.Fatalf("parallel=%s: %s differs from serial run", parallel, name)
			}
		}
	}
	for _, want := range []string{"e1_cell001.csv", "e1_cell001.jsonl", "e1_registry.csv", "e12_registry.jsonl"} {
		if _, ok := got[want]; !ok {
			t.Fatalf("missing export %s (have %d files)", want, len(got))
		}
	}
	if !strings.HasPrefix(got["e1_cell001.csv"], "time_s,tasks_completed,") {
		t.Fatalf("series header = %q", strings.SplitN(got["e1_cell001.csv"], "\n", 2)[0])
	}
	if !strings.Contains(got["e12_registry.csv"], "cost_usd{state=failed}") {
		t.Fatal("registry export missing failed-cost counter")
	}
}

// tornLineWriter is a hostile stderr: it dribbles every Write out
// byte-by-byte with scheduler yields in between, so any two concurrent
// writers WILL interleave mid-line, and it detects overlapping Write
// calls directly. The runner must funnel all progress output through one
// goroutine for this writer to come out clean.
type tornLineWriter struct {
	t       *testing.T
	buf     bytes.Buffer
	inWrite atomic.Bool
}

func (w *tornLineWriter) Write(p []byte) (int, error) {
	if !w.inWrite.CompareAndSwap(false, true) {
		w.t.Error("concurrent Write on stderr")
	}
	for _, b := range p {
		w.buf.WriteByte(b)
		runtime.Gosched()
	}
	w.inWrite.Store(false)
	return len(p), nil
}

// TestRunParallelStderrNotTorn scrapes the progress stream produced under
// -parallel for torn lines: every stderr line must be one complete,
// well-formed progress record.
func TestRunParallelStderrNotTorn(t *testing.T) {
	reg := make([]exp.Experiment, 16)
	for i := range reg {
		id := fmt.Sprintf("T%d", i)
		reg[i] = exp.Experiment{ID: id, Seq: i, Claim: id + " claim",
			Run: func(s exp.Scale) ([]*metrics.Table, error) {
				time.Sleep(time.Duration(s.Seed%5) * time.Millisecond)
				tbl := metrics.NewTable(id+" table", "seed")
				tbl.Add(s.Seed)
				return []*metrics.Table{tbl}, nil
			}}
	}
	var stdout bytes.Buffer
	stderr := &tornLineWriter{t: t}
	if code := run([]string{"-scale", "quick", "-parallel", "8"}, reg, &stdout, stderr); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.buf.String())
	}
	lines := strings.Split(strings.TrimRight(stderr.buf.String(), "\n"), "\n")
	if len(lines) != len(reg) {
		t.Fatalf("stderr has %d lines, want %d:\n%s", len(lines), len(reg), stderr.buf.String())
	}
	done := regexp.MustCompile(`^offbench: T\d+ +done in +[0-9a-z.µ]+, +[0-9.]+ MB allocated$`)
	for _, line := range lines {
		if !done.MatchString(line) {
			t.Errorf("torn or malformed progress line: %q", line)
		}
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, fakeRegistry(false, false), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(stdout.String(), "F1 claim") {
		t.Errorf("list output missing claims:\n%s", stdout.String())
	}
}

// TestFullScaleMatchesCommittedOutput runs every experiment but E21 (a
// million-UE drill) at full scale and requires stdout to equal the
// committed results/offbench_full.txt with its E21 section cut out: the
// full-scale tables are the suite's published output, and a section that
// drifts only at full scale would otherwise go unnoticed here.
func TestFullScaleMatchesCommittedOutput(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "results", "offbench_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	committed := string(raw)
	start := strings.Index(committed, "### E21 ")
	end := strings.Index(committed, "### E22 ")
	if start < 0 || end < start {
		t.Fatal("committed output has no E21 section ahead of E22")
	}
	want := committed[:start] + committed[end:]

	var ids []string
	for _, e := range exp.Registry() {
		if e.ID != "E21" {
			ids = append(ids, e.ID)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "full", "-quiet", "-exp", strings.Join(ids, ",")}, exp.Registry(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	if got := stdout.String(); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("full-scale output differs from the committed output at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("full-scale output has %d lines, the committed output %d", len(gl), len(wl))
	}
}
