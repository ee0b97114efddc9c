package cloudvm

import (
	"math"
	"testing"

	"offload/internal/model"
	"offload/internal/sim"
)

func fixedConfig() Config {
	return Config{
		Name:          "fixed",
		Cores:         2,
		CPUHz:         1e9,
		HourlyCostUSD: 3.6,
		MinInstances:  1,
		MaxInstances:  1,
	}
}

func elasticConfig() Config {
	return Config{
		Name:              "elastic",
		Cores:             1,
		CPUHz:             1e9,
		HourlyCostUSD:     3.6,
		MinInstances:      1,
		MaxInstances:      3,
		BootDelay:         10,
		IdleShutdownAfter: 30,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(c *Config) {}, true},
		{"zero cores", func(c *Config) { c.Cores = 0 }, false},
		{"zero cpu", func(c *Config) { c.CPUHz = 0 }, false},
		{"negative cost", func(c *Config) { c.HourlyCostUSD = -1 }, false},
		{"max below min", func(c *Config) { c.MaxInstances = 0; c.MinInstances = 1 }, false},
		{"zero fleet", func(c *Config) { c.MinInstances = 0; c.MaxInstances = 0 }, false},
		{"negative boot", func(c *Config) { c.BootDelay = -1 }, false},
		{"NaN cpu", func(c *Config) { *c = C5Large(); c.CPUHz = math.NaN() }, false},
		{"NaN cost", func(c *Config) { c.HourlyCostUSD = math.NaN() }, false},
		{"NaN boot", func(c *Config) { c.BootDelay = sim.Duration(math.NaN()) }, false},
		{"NaN idle shutdown", func(c *Config) { c.IdleShutdownAfter = sim.Duration(math.NaN()) }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := fixedConfig()
			tt.mutate(&cfg)
			if got := cfg.Validate() == nil; got != tt.ok {
				t.Fatalf("Validate ok = %v, want %v (%v)", got, tt.ok, cfg.Validate())
			}
		})
	}
	if err := C5Large().Validate(); err != nil {
		t.Fatalf("C5Large invalid: %v", err)
	}
	if err := Autoscaled().Validate(); err != nil {
		t.Fatalf("Autoscaled invalid: %v", err)
	}
}

func TestFixedFleetExecutes(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, fixedConfig())
	var ends []sim.Time
	for i := 0; i < 4; i++ {
		f.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) { ends = append(ends, r.End) })
	}
	eng.Run()
	for i, want := range []float64{1, 1, 2, 2} {
		if math.Abs(float64(ends[i])-want) > 1e-9 {
			t.Fatalf("completion %d at %v, want %v", i, ends[i], want)
		}
	}
	if f.Executed() != 4 {
		t.Fatalf("Executed = %d", f.Executed())
	}
}

func TestNoColdStartOnVM(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, fixedConfig())
	var rep model.ExecReport
	f.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) { rep = r })
	eng.Run()
	if rep.ColdStart != 0 {
		t.Fatalf("VM reported a cold start of %v", rep.ColdStart)
	}
}

func TestAutoscaleUp(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, elasticConfig()) // 1 core per instance, boot 10 s
	// Saturate: 3 long tasks of 100 s each.
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		f.Execute(&model.Task{Cycles: 100e9}, func(r model.ExecReport) { ends = append(ends, r.End) })
	}
	eng.Run()
	// First finishes at 100 on the always-on instance; each queued arrival
	// triggers a boot at t=0, so both extra instances join at 10 and the
	// remaining tasks finish at 110.
	want := []float64{100, 110, 110}
	if len(ends) != 3 {
		t.Fatalf("got %d completions", len(ends))
	}
	for i := range want {
		if math.Abs(float64(ends[i])-want[i]) > 1e-9 {
			t.Fatalf("completion %d at %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestAutoscaleRespectsMax(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, elasticConfig()) // max 3
	for i := 0; i < 10; i++ {
		f.Execute(&model.Task{Cycles: 50e9}, func(model.ExecReport) {})
	}
	eng.RunUntil(40)
	if got := f.Instances(); got > 3 {
		t.Fatalf("fleet grew to %d instances, max is 3", got)
	}
}

func TestIdleShutdownRetiresScaledInstances(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, elasticConfig())
	for i := 0; i < 3; i++ {
		f.Execute(&model.Task{Cycles: 10e9}, func(model.ExecReport) {})
	}
	// All done by ~30; idle shutdown 30 s later retires the 2 scaled-up
	// instances but keeps the minimum.
	eng.RunUntil(500)
	if got := f.Instances(); got != 1 {
		t.Fatalf("Instances = %d after idle period, want 1", got)
	}
}

func TestAccruedCost(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, fixedConfig())
	eng.RunUntil(3600)
	if got := f.AccruedCostUSD(); math.Abs(got-3.6) > 1e-9 {
		t.Fatalf("AccruedCostUSD = %g, want 3.6", got)
	}
}

func TestAccruedCostCountsRetiredInstances(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, elasticConfig())
	for i := 0; i < 2; i++ {
		f.Execute(&model.Task{Cycles: 10e9}, func(model.ExecReport) {})
	}
	eng.RunUntil(3600)
	// Always-on: 1 h. Scaled-up: booted at 10, idle-retired at ~50.
	got := f.AccruedCostUSD()
	wantMin := 3.6 + 3.6*(30.0/3600) // at least boot→retire span
	if got < wantMin {
		t.Fatalf("AccruedCostUSD = %g, want >= %g", got, wantMin)
	}
	if got > 2*3.6 {
		t.Fatalf("AccruedCostUSD = %g, too high (retired instance billed forever?)", got)
	}
}

func TestQueueWaitReported(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, fixedConfig()) // 2 cores
	var waits []sim.Duration
	for i := 0; i < 3; i++ {
		f.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) { waits = append(waits, r.QueueWait) })
	}
	eng.Run()
	if waits[0] != 0 || waits[1] != 0 {
		t.Fatalf("first two tasks waited: %v", waits)
	}
	if math.Abs(float64(waits[2])-1) > 1e-9 {
		t.Fatalf("third task wait = %v, want 1", waits[2])
	}
}
