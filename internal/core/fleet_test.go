package core

import (
	"testing"

	"offload/internal/fault"
	"offload/internal/model"
	"offload/internal/sched"
	"offload/internal/serverless"
)

func TestFleetValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewFleet(cfg, 0); err == nil {
		t.Error("zero-device fleet accepted")
	}
	bad := DefaultConfig()
	bad.Batch = &BatchConfig{Size: 2}
	if _, err := NewFleet(bad, 2); err == nil {
		t.Error("fleet with Batch accepted")
	}
	bad = DefaultConfig()
	bad.OffPeakShift = true
	if _, err := NewFleet(bad, 2); err == nil {
		t.Error("fleet with OffPeakShift accepted")
	}
	bad = DefaultConfig()
	bad.CloudPath = nil
	if _, err := NewFleet(bad, 2); err == nil {
		t.Error("fleet without cloud path accepted")
	}
}

// TestFleetRejectsUnsupported: a fleet cannot honour features that act
// on one device's whole stream or on the shared substrates, and says so
// instead of silently ignoring them.
func TestFleetRejectsUnsupported(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"resilience", func(c *Config) { c.Resilience = &sched.Resilience{} }},
		{"regions", func(c *Config) { c.Regions = &RegionsConfig{} }},
		{"budget", func(c *Config) { c.DailyBudgetUSD = 1 }},
		{"fault", func(c *Config) { c.Fault = &fault.Config{} }},
		{"edge fault", func(c *Config) { c.EdgeFault = &fault.Config{} }},
		{"vm fault", func(c *Config) { c.VMFault = &fault.Config{} }},
		{"dag", func(c *Config) { c.DAG = &DAGConfig{} }},
		{"shards", func(c *Config) { c.ShardCount = 2 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if _, err := NewFleet(cfg, 2); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestFleetHonoursPerUEFeatures: retry jitter with a backoff cap and
// local DVFS reach every fleet UE's scheduler.
func TestFleetHonoursPerUEFeatures(t *testing.T) {
	run := func(dvfs float64) FleetStats {
		cfg := DefaultConfig()
		cfg.Policy = PolicyLocalOnly
		cfg.Retries, cfg.RetryMaxBackoff, cfg.RetryJitter = 3, 5, true
		cfg.LocalDVFSMinScale = dvfs
		fleet, err := NewFleet(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.SubmitStreams(0.05, 5); err != nil {
			t.Fatal(err)
		}
		fleet.Run()
		return fleet.Stats()
	}
	if with, without := run(0.4), run(0); with.EnergyMilliJ >= without.EnergyMilliJ {
		t.Errorf("fleet energy with DVFS %g mJ, without %g mJ: want lower", with.EnergyMilliJ, without.EnergyMilliJ)
	}
}

func TestFleetSharesOnePlatform(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyCloudAll
	cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
	cfg.ArrivalRateHint = 0.02
	fleet, err := NewFleet(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Size() != 8 {
		t.Fatalf("Size = %d", fleet.Size())
	}
	if err := fleet.SubmitStreams(0.02, 5); err != nil {
		t.Fatal(err)
	}
	fleet.Run()
	st := fleet.Stats()
	if st.Completed != 40 || st.Failed != 0 {
		t.Fatalf("Completed/Failed = %d/%d", st.Completed, st.Failed)
	}
	// All 40 invocations landed on the one shared platform.
	if got := fleet.Platform().Stats().Invocations; got != 40 {
		t.Fatalf("shared platform served %d invocations, want 40", got)
	}
	if st.ByPlacement[model.PlaceFunction] != 40 {
		t.Fatalf("ByPlacement = %v", st.ByPlacement)
	}
	if st.Table().Len() == 0 {
		t.Fatal("empty stats table")
	}
}

func TestFleetContendsOnConcurrencyLimit(t *testing.T) {
	// A tiny account limit makes simultaneous devices queue; the same load
	// with a large limit must not.
	run := func(limit int) float64 {
		cfg := DefaultConfig()
		cfg.Policy = PolicyCloudAll
		cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
		sl := serverless.LambdaLike()
		sl.ConcurrencyLimit = limit
		cfg.Serverless = &sl
		fleet, err := NewFleet(cfg, 10)
		if err != nil {
			t.Fatal(err)
		}
		// All devices submit a burst at once.
		if err := fleet.SubmitStreams(100, 3); err != nil {
			t.Fatal(err)
		}
		fleet.Run()
		return fleet.Stats().MeanCompletion
	}
	constrained := run(1)
	roomy := run(1000)
	if constrained <= roomy*2 {
		t.Fatalf("limit 1 (%g s) not slower than limit 1000 (%g s)", constrained, roomy)
	}
}

func TestFleetDeterministic(t *testing.T) {
	run := func() float64 {
		cfg := DefaultConfig()
		fleet, err := NewFleet(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.SubmitStreams(0.05, 4); err != nil {
			t.Fatal(err)
		}
		fleet.Run()
		return fleet.Stats().MeanCompletion
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("fleet not deterministic: %g vs %g", a, b)
	}
}
