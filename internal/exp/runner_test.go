package exp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"offload/internal/metrics"
	"offload/internal/rng"
)

// fakeExperiment builds a deterministic experiment whose single table row
// records the seed it was handed — enough to prove seed derivation and
// ordering without paying for a real simulation.
func fakeExperiment(id string, seq int) Experiment {
	return Experiment{
		ID:  id,
		Seq: seq,
		Run: func(s Scale) ([]*metrics.Table, error) {
			tbl := metrics.NewTable(id, "seed")
			tbl.Add(s.Seed)
			return []*metrics.Table{tbl}, nil
		},
	}
}

// render flattens results into one comparable string, the same way
// offbench renders its CSV output.
func render(results []Result) string {
	var b strings.Builder
	for _, res := range results {
		fmt.Fprintf(&b, "## %s\n", res.ID)
		for _, tbl := range res.Tables {
			b.WriteString(tbl.CSV())
		}
	}
	return b.String()
}

func TestRunnerWorkerCountInvariance(t *testing.T) {
	// The real quick-scale suite, restricted to the fastest experiments so
	// the test stays snappy, must render byte-identically at every worker
	// count — the property CI's determinism gate enforces at full breadth.
	var exps []Experiment
	for _, e := range Registry() {
		if e.ID == "E2" || e.ID == "E3" || e.ID == "E16" {
			exps = append(exps, e)
		}
	}
	var want string
	for _, workers := range []int{1, 2, 4, 16} {
		r := &Runner{Scale: Quick(), Parallel: workers}
		results, err := r.Run(context.Background(), exps)
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		got := render(results)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("parallel=%d output differs from parallel=1", workers)
		}
	}
}

func TestRunnerSeedDerivation(t *testing.T) {
	exps := []Experiment{fakeExperiment("A", 0), fakeExperiment("B", 1), fakeExperiment("C", 7)}
	r := &Runner{Scale: Scale{Seed: 42}, Parallel: 3}
	results, err := r.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[uint64]bool{}
	for i, res := range results {
		want := rng.Derive(42, uint64(exps[i].Seq))
		if res.Seed != want {
			t.Errorf("%s ran with seed %d, want Derive(42, %d) = %d", res.ID, res.Seed, exps[i].Seq, want)
		}
		if !strings.Contains(res.Tables[0].CSV(), fmt.Sprintf("%d", want)) {
			t.Errorf("%s's table does not record the derived seed", res.ID)
		}
		seeds[res.Seed] = true
	}
	if len(seeds) != len(exps) {
		t.Errorf("derived seeds collide: %v", seeds)
	}
	// Results come back in input order regardless of completion order.
	for i, id := range []string{"A", "B", "C"} {
		if results[i].ID != id {
			t.Errorf("results[%d] = %s, want %s", i, results[i].ID, id)
		}
	}
}

func TestRunnerSubsetMatchesFullRun(t *testing.T) {
	// Running one experiment alone reproduces exactly what the full list
	// produced for it: seeds derive from Seq, not list position.
	exps := []Experiment{fakeExperiment("A", 0), fakeExperiment("B", 1), fakeExperiment("C", 2)}
	r := &Runner{Scale: Scale{Seed: 9}, Parallel: 2}
	full, err := r.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := r.Run(context.Background(), exps[2:])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solo[0].Tables[0].CSV(), full[2].Tables[0].CSV(); got != want {
		t.Errorf("subset run diverged: %q != %q", got, want)
	}
}

func TestRunnerFirstErrorCancelsQueue(t *testing.T) {
	boom := errors.New("boom")
	var ran sync.Map
	slow := func(id string, seq int, err error) Experiment {
		return Experiment{ID: id, Seq: seq, Run: func(s Scale) ([]*metrics.Table, error) {
			ran.Store(id, true)
			return nil, err
		}}
	}
	// One worker: the failure of the first experiment must skip the rest.
	exps := []Experiment{slow("A", 0, boom), slow("B", 1, nil), slow("C", 2, nil)}
	r := &Runner{Scale: Scale{Seed: 1}, Parallel: 1}
	results, err := r.Run(context.Background(), exps)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if results[0].Err == nil || results[0].Skipped {
		t.Errorf("failed experiment misreported: %+v", results[0])
	}
	for _, res := range results[1:] {
		if !res.Skipped {
			t.Errorf("%s ran after the suite failed", res.ID)
		}
		if res.Err == nil {
			t.Errorf("%s skipped without an error", res.ID)
		}
	}
	if _, bRan := ran.Load("B"); bRan {
		t.Error("B executed despite cancellation")
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blocker := func(id string, seq int) Experiment {
		return Experiment{ID: id, Seq: seq, Run: func(s Scale) ([]*metrics.Table, error) {
			once.Do(func() { close(started) })
			<-release
			return []*metrics.Table{metrics.NewTable(id, "c")}, nil
		}}
	}
	exps := []Experiment{blocker("A", 0), blocker("B", 1), blocker("C", 2)}
	r := &Runner{Scale: Scale{Seed: 1}, Parallel: 1}

	done := make(chan struct{})
	var results []Result
	var err error
	go func() {
		results, err = r.Run(ctx, exps)
		close(done)
	}()
	<-started // A is mid-flight
	cancel()  // cancel the suite while A runs
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	// A was in flight and completes; B and C never start.
	if results[0].Err != nil || results[0].Skipped {
		t.Errorf("in-flight experiment did not complete: %+v", results[0].Err)
	}
	for _, res := range results[1:] {
		if !res.Skipped || !errors.Is(res.Err, context.Canceled) {
			t.Errorf("%s not skipped on cancellation: %+v", res.ID, res.Err)
		}
	}
}

func TestRunnerPanicRecovery(t *testing.T) {
	exps := []Experiment{
		fakeExperiment("A", 0),
		{ID: "P", Seq: 1, Run: func(s Scale) ([]*metrics.Table, error) {
			panic("kaboom")
		}},
	}
	r := &Runner{Scale: Scale{Seed: 1}, Parallel: 2}
	results, err := r.Run(context.Background(), exps)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not surfaced as the suite error: %v", err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "kaboom") {
		t.Fatalf("panic not captured on the result: %v", results[1].Err)
	}
	if !strings.Contains(results[1].Err.Error(), "runner_test.go") {
		t.Errorf("panic error carries no stack trace: %v", results[1].Err)
	}
}

func TestRunnerRecordsStats(t *testing.T) {
	exps := []Experiment{{ID: "S", Seq: 0, Run: func(s Scale) ([]*metrics.Table, error) {
		buf := make([]byte, 1<<20)
		_ = buf
		time.Sleep(time.Millisecond)
		return []*metrics.Table{metrics.NewTable("S", "c")}, nil
	}}}
	r := &Runner{Scale: Scale{Seed: 1}, Parallel: 1}
	results, err := r.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", results[0].Elapsed)
	}
	if results[0].AllocBytes == 0 {
		t.Errorf("AllocBytes = 0, want > 0")
	}
}

func TestRunnerOnResultSerialized(t *testing.T) {
	var exps []Experiment
	for i := 0; i < 8; i++ {
		exps = append(exps, fakeExperiment(fmt.Sprintf("X%d", i), i))
	}
	var seen []string
	var depth atomic.Int32
	r := &Runner{
		Scale:    Scale{Seed: 1},
		Parallel: 4,
		OnResult: func(res Result) {
			// Overlap detector: a second OnResult entering while one is
			// still running means delivery is not serialized. The sleep
			// widens the window so an unserialized runner fails reliably.
			if depth.Add(1) > 1 {
				t.Error("OnResult entered concurrently")
			}
			time.Sleep(200 * time.Microsecond)
			seen = append(seen, res.ID)
			depth.Add(-1)
		},
	}
	if _, err := r.Run(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	// Run must not return before every delivery completed: seen is written
	// only inside OnResult, with no synchronization of its own.
	if len(seen) != len(exps) {
		t.Fatalf("OnResult fired %d times, want %d", len(seen), len(exps))
	}
}
