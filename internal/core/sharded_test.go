package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"offload/internal/adapt"
	"offload/internal/fault"
	"offload/internal/model"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/trace"
)

// shardedFingerprint runs a full-substrate sharded fleet and returns an
// exact (bit-level) fingerprint of everything observable: aggregate
// stats, per-placement counts, completion-distribution quantiles and the
// merged span set.
func shardedFingerprint(t *testing.T, cfg Config, shards, devices, tasks int) (string, *trace.SpanSet) {
	t.Helper()
	cfg.ShardCount = shards
	f, err := NewShardedFleet(cfg, devices)
	if err != nil {
		t.Fatal(err)
	}
	f.EnableSpans()
	if err := f.SubmitStreams(0.05, tasks); err != nil {
		t.Fatal(err)
	}
	f.Run()
	st := f.Stats()
	var placements []string
	for p, n := range st.ByPlacement {
		if n > 0 {
			placements = append(placements, fmt.Sprintf("%v=%d", model.Placement(p), n))
		}
	}
	sort.Strings(placements)
	fp := fmt.Sprintf("c=%d f=%d m=%d r=%d mean=%x cost=%x energy=%x fcost=%x fenergy=%x p50=%x p95=%x by=%v",
		st.Completed, st.Failed, st.Missed, st.Retries,
		st.MeanCompletion, st.CostUSD, st.EnergyMilliJ,
		st.FailedCostUSD, st.FailedEnergyMilliJ,
		st.Completion.Quantile(0.5), st.Completion.Quantile(0.95), placements)
	return fp, f.SpanSet()
}

// TestShardedFleetMatchesAcrossShardCounts is the fleet-level determinism
// property: the same configuration must produce bit-identical stats and
// byte-identical merged spans at every shard count, with one shard as the
// serial reference.
func TestShardedFleetMatchesAcrossShardCounts(t *testing.T) {
	const devices, tasks = 30, 5
	cfg := DefaultConfig()
	cfg.Policy = PolicyDeadlineAware
	cfg.PredictionNoise = 0.2
	cfg.Retries = 3
	refFP, refSpans := shardedFingerprint(t, cfg, 1, devices, tasks)
	if refSpans == nil || len(refSpans.Spans) == 0 {
		t.Fatal("serial reference recorded no spans")
	}
	for _, shards := range []int{2, 4, 7} {
		fp, spans := shardedFingerprint(t, cfg, shards, devices, tasks)
		if fp != refFP {
			t.Errorf("shards=%d stats diverged:\n serial: %s\nsharded: %s", shards, refFP, fp)
		}
		if !reflect.DeepEqual(refSpans, spans) {
			t.Errorf("shards=%d spans diverged: %d vs %d spans", shards, len(refSpans.Spans), len(spans.Spans))
		}
	}
}

// TestShardedFleetJitterDVFSMatchesAcrossShardCounts: retry jitter, a
// backoff cap and local DVFS are per-UE features drawing only per-UE
// streams, so a sharded fleet honours them with byte-identical results at
// every shard count, and DVFS saves device energy.
func TestShardedFleetJitterDVFSMatchesAcrossShardCounts(t *testing.T) {
	const devices, tasks = 21, 6
	cfg := DefaultConfig()
	cfg.Policy = PolicyRandom
	sl := serverless.LambdaLike()
	sl.FailureRate = 0.3
	cfg.Serverless = &sl
	cfg.Retries, cfg.RetryBackoff, cfg.RetryMaxBackoff, cfg.RetryJitter = 4, 2, 5, true
	plain := cfg
	cfg.LocalDVFSMinScale = 0.4

	refFP, _ := shardedFingerprint(t, cfg, 1, devices, tasks)
	for _, shards := range []int{2, 7} {
		if fp, _ := shardedFingerprint(t, cfg, shards, devices, tasks); fp != refFP {
			t.Errorf("shards=%d stats diverged:\n serial: %s\nsharded: %s", shards, refFP, fp)
		}
	}

	energy := func(cfg Config) (float64, uint64) {
		f, err := NewShardedFleet(cfg, devices)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SubmitStreams(0.05, tasks); err != nil {
			t.Fatal(err)
		}
		f.Run()
		st := f.Stats()
		return st.EnergyMilliJ + st.FailedEnergyMilliJ, st.Retries
	}
	dvfs, retries := energy(cfg)
	full, _ := energy(plain)
	if dvfs >= full {
		t.Errorf("device energy with DVFS %g mJ, without %g mJ: want lower", dvfs, full)
	}
	if retries == 0 {
		t.Error("no retries: the jittered backoff was never exercised")
	}
}

// TestShardedFleetCompletesWork: the barrier path actually executes remote
// work on the shared substrates and brings every task home.
func TestShardedFleetCompletesWork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyCloudAll
	cfg.ShardCount = 4
	f, err := NewShardedFleet(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SubmitStreams(0.05, 4); err != nil {
		t.Fatal(err)
	}
	f.Run()
	st := f.Stats()
	if st.Completed != 48 || st.Failed != 0 {
		t.Fatalf("Completed/Failed = %d/%d, want 48/0", st.Completed, st.Failed)
	}
	if st.ByPlacement[model.PlaceFunction] != 48 {
		t.Fatalf("ByPlacement = %v, want all on functions", st.ByPlacement)
	}
	if got := f.Platform().Stats().Invocations; got != 48 {
		t.Fatalf("shared platform served %d invocations, want 48", got)
	}
	if f.Shards() != 4 || f.Size() != 12 {
		t.Fatalf("Shards/Size = %d/%d", f.Shards(), f.Size())
	}
}

// TestShardedFleetTaskIDsDisjoint: per-UE ID bases (ue<<32) keep task
// identifiers globally unique whatever the partition — checked through
// the recorded spans, which carry one trace per task.
func TestShardedFleetTaskIDsDisjoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyThreshold
	cfg.ShardCount = 3
	f, err := NewShardedFleet(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	f.EnableSpans()
	if err := f.SubmitStreams(0.05, 7); err != nil {
		t.Fatal(err)
	}
	f.Run()
	set := f.SpanSet()
	traces := map[uint64]bool{}
	for _, sp := range set.Spans {
		traces[sp.Trace] = true
	}
	if len(traces) != 9*7 {
		t.Fatalf("saw %d distinct task traces, want 63", len(traces))
	}
}

func TestShardedFleetRejectsUnsupported(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"batch", func(c *Config) { c.Batch = &BatchConfig{Size: 2} }},
		{"offpeak", func(c *Config) { c.OffPeakShift = true }},
		{"resilience", func(c *Config) { c.Resilience = &sched.Resilience{} }},
		{"regions", func(c *Config) { c.Regions = &RegionsConfig{} }},
		{"adapt", func(c *Config) { a := adapt.DefaultConfig(); c.Adapt = &a }},
		{"bandit", func(c *Config) { c.Policy = PolicyBanditUCB }},
		{"budget", func(c *Config) { c.DailyBudgetUSD = 1 }},
		{"fault", func(c *Config) { c.Fault = &fault.Config{} }},
		{"negative shards", func(c *Config) { c.ShardCount = -1 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if _, err := NewShardedFleet(cfg, 2); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewShardedFleet(DefaultConfig(), 0); err == nil {
		t.Error("zero-device sharded fleet accepted")
	}
}
