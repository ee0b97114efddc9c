package core

import (
	"math"
	"strings"
	"testing"

	"offload/internal/adapt"
	"offload/internal/callgraph"
	"offload/internal/device"
	"offload/internal/model"
	"offload/internal/network"

	"offload/internal/serverless"
	"offload/internal/trace"
	"offload/internal/workload"
)

func TestNewSystemDefaultConfig(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Env.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sys.Env.Available()) != 4 {
		t.Fatalf("default system has %d placements", len(sys.Env.Available()))
	}
}

func TestNewSystemValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EdgePath = nil
	if _, err := NewSystem(cfg); err == nil {
		t.Error("edge without path accepted")
	}
	cfg = DefaultConfig()
	cfg.CloudPath = nil
	if _, err := NewSystem(cfg); err == nil {
		t.Error("serverless without cloud path accepted")
	}
	cfg = DefaultConfig()
	cfg.Policy = "nope"
	if _, err := NewSystem(cfg); err == nil {
		t.Error("unknown policy accepted")
	}
	cfg = DefaultConfig()
	cfg.Device.CPUHz = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Error("invalid device accepted")
	}
	cfg = DefaultConfig()
	cfg.ShardCount = 2
	if _, err := NewSystem(cfg); err == nil {
		t.Error("sharded config accepted")
	}
}

// TestRetryKnobsNeedRetries: a retry backoff, cap or jitter is rejected
// unless Retries > 1, where it takes effect.
func TestRetryKnobsNeedRetries(t *testing.T) {
	knobs := []struct {
		name string
		set  func(*Config)
	}{
		{"backoff", func(c *Config) { c.RetryBackoff = 5 }},
		{"max backoff", func(c *Config) { c.RetryMaxBackoff = 30 }},
		{"jitter", func(c *Config) { c.RetryJitter = true }},
	}
	for _, k := range knobs {
		for _, retries := range []int{0, 1} {
			cfg := DefaultConfig()
			cfg.Retries = retries
			k.set(&cfg)
			if _, err := NewSystem(cfg); err == nil || !strings.Contains(err.Error(), "without Retries > 1") {
				t.Errorf("%s with Retries=%d: err = %v, want the retry rule", k.name, retries, err)
			}
			if _, err := NewFleet(cfg, 2); err == nil {
				t.Errorf("%s with Retries=%d: NewFleet accepted", k.name, retries)
			}
		}
		cfg := DefaultConfig()
		cfg.Retries = 2
		k.set(&cfg)
		if _, err := NewSystem(cfg); err != nil {
			t.Errorf("%s with Retries=2: %v", k.name, err)
		}
	}
}

// TestSubstrateKnobsNeedTheirSubstrate: a path or a function-pool knob
// whose substrate is absent would be ignored, so each constructor
// rejects it by its rule; with the substrate present it is accepted.
func TestSubstrateKnobsNeedTheirSubstrate(t *testing.T) {
	cases := []struct {
		name, rule string
		drop, set  func(*Config)
	}{
		{"edge path", "EdgePath configured without edge",
			func(c *Config) { c.Edge = nil }, func(c *Config) {}},
		{"cloud path", "CloudPath configured without serverless or a VM fleet",
			func(c *Config) { c.Serverless, c.VM = nil, nil }, func(c *Config) {}},
		{"arrival rate hint", "function pool knobs configured without serverless",
			func(c *Config) { c.Serverless = nil }, func(c *Config) { c.ArrivalRateHint = 0.1 }},
		{"redeploy tolerance", "function pool knobs configured without serverless",
			func(c *Config) { c.Serverless = nil }, func(c *Config) { c.RedeployTolerance = 0.3 }},
		{"provisioned concurrency", "function pool knobs configured without serverless",
			func(c *Config) { c.Serverless = nil }, func(c *Config) { c.ProvisionedConcurrency = 2 }},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.set(&cfg)
		if _, err := NewSystem(cfg); err != nil {
			t.Errorf("%s with its substrate: %v", c.name, err)
		}
		c.drop(&cfg)
		if _, err := NewSystem(cfg); err == nil || !strings.HasSuffix(err.Error(), c.rule) {
			t.Errorf("%s without its substrate: err = %v, want %q", c.name, err, c.rule)
		}
		if _, err := NewFleet(cfg, 2); err == nil || !strings.HasSuffix(err.Error(), c.rule) {
			t.Errorf("%s without its substrate: NewFleet err = %v, want %q", c.name, err, c.rule)
		}
	}
}

func TestAllPoliciesBuild(t *testing.T) {
	for _, p := range AllPolicies() {
		cfg := DefaultConfig()
		cfg.Policy = p
		if _, err := NewSystem(cfg); err != nil {
			t.Errorf("policy %s: %v", p, err)
		}
	}
}

func TestEndToEndRunCollectsOutcomes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyDeadlineAware
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	sys.Env.Events.Subscribe(rec)
	gen, err := workload.StandardMix(sys.Src.Split())
	if err != nil {
		t.Fatal(err)
	}
	sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), 0.5), gen, 50)
	sys.Run()
	st := sys.Stats()
	if st.Total() != 50 {
		t.Fatalf("Total = %d, want 50", st.Total())
	}
	if st.Failed != 0 {
		t.Fatalf("Failed = %d", st.Failed)
	}
	if rec.Len() != 50 {
		t.Fatalf("Recorder.Len = %d", rec.Len())
	}
	if st.MissRate() > 0.05 {
		t.Fatalf("deadline-aware miss rate = %g", st.MissRate())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		cfg := DefaultConfig()
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.StandardMix(sys.Src.Split())
		if err != nil {
			t.Fatal(err)
		}
		sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), 1), gen, 30)
		sys.Run()
		return sys.Stats().MeanCompletion()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different results: %g vs %g", a, b)
	}
}

// TestArmGaugeIdenticalAcrossRuns runs one bandit configuration 40 times
// in one process. The arm state the metrics export reads must match to
// the bit every time, whatever order the bandit's maps iterate in.
func TestArmGaugeIdenticalAcrossRuns(t *testing.T) {
	run := func() []adapt.ArmSnapshot {
		cfg := DefaultConfig()
		cfg.Policy = PolicyBanditUCB
		cfg.Seed = 9
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.StandardMix(sys.Src.Split())
		if err != nil {
			t.Fatal(err)
		}
		sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), 0.5), gen, 3000)
		sys.Run()
		return sys.Adapt().Arms()
	}
	want := run()
	if len(want) < 2 {
		t.Fatalf("bandit learned %d arms, want several", len(want))
	}
	for i := 1; i < 40; i++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d arms, want %d", i, len(got), len(want))
		}
		for k := range want {
			g, w := got[k], want[k]
			if g.Placement != w.Placement || g.Pulls != w.Pulls ||
				math.Float64bits(g.MeanReward) != math.Float64bits(w.MeanReward) {
				t.Fatalf("run %d arm %v: got %+v, first run %+v", i, w.Placement, g, w)
			}
		}
	}
}

func TestBatchedSystemFlushesOnRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyCloudAll
	cfg.Batch = &BatchConfig{Size: 100, MaxWait: 0} // only Flush can release
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.StandardMix(sys.Src.Split())
	if err != nil {
		t.Fatal(err)
	}
	sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), 1), gen, 10)
	sys.Run()
	if got := sys.Stats().Total(); got != 10 {
		t.Fatalf("batched run completed %d tasks, want 10", got)
	}
}

func TestInfrastructureCostAccrues(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.Eng.RunUntil(3600)
	// Edge $0.60/h + VM $0.085/h.
	want := 0.60 + 0.085
	if got := sys.InfrastructureCostUSD(); math.Abs(got-want) > 0.01 {
		t.Fatalf("InfrastructureCostUSD = %g, want ~%g", got, want)
	}
	noEdge := DefaultConfig()
	noEdge.Edge, noEdge.EdgePath, noEdge.VM = nil, nil, nil
	sys2, err := NewSystem(noEdge)
	if err != nil {
		t.Fatal(err)
	}
	sys2.Eng.RunUntil(3600)
	if got := sys2.InfrastructureCostUSD(); got != 0 {
		t.Fatalf("serverless-only infrastructure cost = %g, want 0", got)
	}
}

func TestCostModelForProducesValidModel(t *testing.T) {
	cm := CostModelFor(device.Smartphone(), serverless.LambdaLike(),
		serverless.LambdaLike().FullShareBytes, network.WiFiCloud(), DefaultWeights())
	if err := cm.Validate(); err != nil {
		t.Fatal(err)
	}
	if cm.RemoteHz > serverless.LambdaLike().BaselineHz {
		t.Fatal("remote speed exceeds one vCPU for serial components")
	}
}

func TestPlanAppJourney(t *testing.T) {
	plan, err := PlanApp(callgraph.SciBatch(), PlanOptions{
		Device:     device.Smartphone(),
		Serverless: serverless.LambdaLike(),
		CloudPath:  network.WiFiCloud(),
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.App != "sci-batch" {
		t.Fatalf("App = %s", plan.App)
	}
	if len(plan.Remote) == 0 {
		t.Fatal("plan offloads nothing for the strongest offloading case")
	}
	found := false
	for _, r := range plan.Remote {
		if r == "simulate" {
			found = true
		}
		if r == "instrument" {
			t.Fatal("pinned component in remote set")
		}
	}
	if !found {
		t.Fatalf("simulate not offloaded: %v", plan.Remote)
	}
	if len(plan.Manifest.Functions) != len(plan.Remote) {
		t.Fatalf("manifest has %d functions for %d remote components",
			len(plan.Manifest.Functions), len(plan.Remote))
	}
	for _, fn := range plan.Manifest.Functions {
		if fn.MemoryBytes < 128*model.MB {
			t.Errorf("function %s sized at %d", fn.Name, fn.MemoryBytes)
		}
	}
	if plan.EstimatedCostPerRunUSD <= 0 {
		t.Fatal("plan has no estimated cost")
	}
	if plan.Template.MeanCycles <= 0 {
		t.Fatal("plan has no workload template")
	}
}

func TestPlanAppValidation(t *testing.T) {
	if _, err := PlanApp(callgraph.New("empty"), PlanOptions{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := PlanApp(callgraph.ReportGen(), PlanOptions{}); err == nil {
		t.Fatal("zero options accepted")
	}
}

func TestPlanDeterministicForSeed(t *testing.T) {
	opts := PlanOptions{
		Device:     device.Smartphone(),
		Serverless: serverless.LambdaLike(),
		CloudPath:  network.WiFiCloud(),
		Seed:       3,
	}
	a, err := PlanApp(callgraph.MLBatch(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanApp(callgraph.MLBatch(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.EstimatedCostPerRunUSD != b.EstimatedCostPerRunUSD {
		t.Fatal("plans differ for equal seeds")
	}
	if len(a.Remote) != len(b.Remote) {
		t.Fatal("partitions differ for equal seeds")
	}
}
