package core

import (
	"math"
	"testing"

	"offload/internal/fault"
	"offload/internal/metrics"
	"offload/internal/workload"
)

// runFaulty drives a cloud-all system with a 30% transient failure rate
// and no retries, so a substantial fraction of tasks fail permanently with
// their attempt already billed.
func runFaulty(t *testing.T) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Policy = PolicyCloudAll
	cfg.Retries = 1 // RetryPolicy{MaxAttempts:1}: every failure is permanent
	cfg.Fault = &fault.Config{FailureRate: 0.3}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.StandardMix(sys.Src.Split())
	if err != nil {
		t.Fatal(err)
	}
	sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), 0.5), gen, 100)
	sys.Run()
	return sys
}

// TestStatsCostIdentityUnderPermanentFailures: the money the scheduler
// accounts for — completed plus failed tasks — must equal what the
// platform billed, to 1e-9. Before the Stats.record fix, failed tasks'
// spend was silently dropped and this identity broke whenever anything
// failed permanently.
func TestStatsCostIdentityUnderPermanentFailures(t *testing.T) {
	sys := runFaulty(t)
	st := sys.Stats()
	if st.Failed == 0 {
		t.Fatal("no permanent failures at 30% fault rate; test exercises nothing")
	}
	if st.FailedCostUSD <= 0 {
		t.Fatal("failed tasks billed nothing: FailedCostUSD not accumulating")
	}
	billed := sys.Platform().Stats().BilledUSD
	if diff := math.Abs(st.TotalCostUSD() - billed); diff > 1e-9 {
		t.Fatalf("scheduler spend %g != platform billed %g (diff %g): failed-task cost dropped",
			st.TotalCostUSD(), billed, diff)
	}
	// The identity must NOT hold for completed-only spend — that is the
	// original bug. If it does, the fault injection failed to bill anyone.
	if math.Abs(st.CostUSD-billed) <= 1e-9 {
		t.Fatal("completed-only cost equals billed: no failed spend existed to account for")
	}
}

// TestReportMatchesStats: the Report summary must carry exactly the
// numbers Stats holds — one source of truth for the examples and the
// daemon.
func TestReportMatchesStats(t *testing.T) {
	sys := runFaulty(t)
	st := sys.Stats()
	r := sys.Report()
	if r.Completed != st.Completed || r.Failed != st.Failed {
		t.Fatalf("Report counts %d/%d != Stats %d/%d", r.Completed, r.Failed, st.Completed, st.Failed)
	}
	if r.CompletedCostUSD != st.CostUSD || r.FailedCostUSD != st.FailedCostUSD {
		t.Fatal("Report cost fields diverge from Stats")
	}
	if r.CostPerTaskUSD != st.CostPerTask() {
		t.Fatal("Report.CostPerTaskUSD diverges from Stats.CostPerTask")
	}
	if r.P95CompletionS != st.P95Completion() {
		t.Fatal("Report.P95CompletionS diverges from Stats.P95Completion")
	}
	if r.InfraCostUSD != sys.InfrastructureCostUSD() {
		t.Fatal("Report.InfraCostUSD diverges from InfrastructureCostUSD")
	}
	if got := r.TotalCostUSD(); got != r.CompletedCostUSD+r.FailedCostUSD+r.InfraCostUSD {
		t.Fatalf("TotalCostUSD = %g, want sum of parts", got)
	}
	if r.Table().Len() == 0 {
		t.Fatal("Report.Table rendered no rows")
	}
}

// TestObserverIsInert: attaching an observer must not change any simulated
// result — same outcomes, same spend, same end time, same event count.
func TestObserverIsInert(t *testing.T) {
	run := func(observe bool) (*System, int) {
		cfg := DefaultConfig()
		cfg.Policy = PolicyDeadlineAware
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		samples := 0
		var obs *Observer
		if observe {
			obs = sys.Observe("test", 5)
		}
		gen, err := workload.StandardMix(sys.Src.Split())
		if err != nil {
			t.Fatal(err)
		}
		sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), 0.5), gen, 60)
		sys.Run()
		if obs != nil {
			samples = obs.Series().Len()
		}
		return sys, samples
	}
	plain, _ := run(false)
	observed, samples := run(true)
	if samples == 0 {
		t.Fatal("observer recorded no samples")
	}
	if a, b := plain.Stats(), observed.Stats(); a.MeanCompletion() != b.MeanCompletion() ||
		a.CostUSD != b.CostUSD || a.Completed != b.Completed {
		t.Fatal("observer changed simulation results")
	}
	if plain.Eng.Now() != observed.Eng.Now() {
		t.Fatalf("observer moved the end-of-run clock: %v vs %v", plain.Eng.Now(), observed.Eng.Now())
	}
	if plain.Eng.Fired() != observed.Eng.Fired() {
		t.Fatalf("observer fired events: %d vs %d", plain.Eng.Fired(), observed.Eng.Fired())
	}
	if plain.InfrastructureCostUSD() != observed.InfrastructureCostUSD() {
		t.Fatal("observer changed infrastructure cost accrual")
	}
}

// TestSystemRegistrySnapshot: the end-of-run registry must agree with the
// stats it was derived from.
func TestSystemRegistrySnapshot(t *testing.T) {
	sys := runFaulty(t)
	st := sys.Stats()
	reg := sys.Registry("run")
	if got := reg.Counter("tasks", metrics.L("state", "completed")).Value(); got != float64(st.Completed) {
		t.Fatalf("registry completed = %g, want %d", got, st.Completed)
	}
	if got := reg.Counter("cost_usd", metrics.L("state", "failed")).Value(); got != st.FailedCostUSD {
		t.Fatalf("registry failed cost = %g, want %g", got, st.FailedCostUSD)
	}
	if got := reg.LatencyHistogram("completion_s").Count(); got != st.Completion.Count() {
		t.Fatalf("registry completion count = %d, want %d", got, st.Completion.Count())
	}
}
