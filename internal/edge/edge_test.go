package edge

import (
	"math"
	"testing"

	"offload/internal/model"
	"offload/internal/sim"
)

func testConfig() Config {
	return Config{
		Name:            "test-edge",
		Servers:         1,
		Cores:           2,
		CPUHz:           1e9,
		HourlyCostUSD:   3.6, // $0.001 per second, easy numbers
		MemoryPerServer: model.GB,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(c *Config) {}, true},
		{"zero servers", func(c *Config) { c.Servers = 0 }, false},
		{"zero cores", func(c *Config) { c.Cores = 0 }, false},
		{"zero cpu", func(c *Config) { c.CPUHz = 0 }, false},
		{"negative cost", func(c *Config) { c.HourlyCostUSD = -1 }, false},
		{"negative memory", func(c *Config) { c.MemoryPerServer = -1 }, false},
		{"NaN cpu", func(c *Config) { *c = SmallSite(); c.CPUHz = math.NaN() }, false},
		{"NaN cost", func(c *Config) { c.HourlyCostUSD = math.NaN() }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			if got := cfg.Validate() == nil; got != tt.ok {
				t.Fatalf("Validate ok = %v, want %v", got, tt.ok)
			}
		})
	}
	if err := SmallSite().Validate(); err != nil {
		t.Fatalf("SmallSite invalid: %v", err)
	}
}

func TestExecuteTiming(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, testConfig())
	var rep model.ExecReport
	c.Execute(&model.Task{Cycles: 2e9}, func(r model.ExecReport) { rep = r })
	eng.Run()
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if math.Abs(float64(rep.Duration())-2) > 1e-9 {
		t.Fatalf("duration = %v, want 2", rep.Duration())
	}
	if rep.CostUSD != 0 {
		t.Fatal("edge execution billed per task")
	}
}

func TestQueueingBeyondCores(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, testConfig()) // 2 cores total
	var ends []sim.Time
	for i := 0; i < 4; i++ {
		c.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) { ends = append(ends, r.End) })
	}
	eng.Run()
	for i, want := range []float64{1, 1, 2, 2} {
		if math.Abs(float64(ends[i])-want) > 1e-9 {
			t.Fatalf("completion %d at %v, want %v", i, ends[i], want)
		}
	}
	if c.Executed() != 4 {
		t.Fatalf("Executed = %d", c.Executed())
	}
}

func TestMemoryRejection(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, testConfig())
	var rep model.ExecReport
	c.Execute(&model.Task{Cycles: 1, MemoryBytes: 2 * model.GB}, func(r model.ExecReport) { rep = r })
	eng.Run()
	if rep.Err == nil {
		t.Fatal("oversized task accepted")
	}
	if c.Rejected() != 1 {
		t.Fatalf("Rejected = %d", c.Rejected())
	}
}

func TestProvisionedCostAccruesWithTimeNotUse(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, testConfig())
	eng.RunUntil(7200) // two idle hours
	want := 2 * 3.6
	if math.Abs(c.ProvisionedCostUSD()-want) > 1e-9 {
		t.Fatalf("ProvisionedCostUSD = %g, want %g", c.ProvisionedCostUSD(), want)
	}
}

func TestUtilization(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, testConfig())
	c.Execute(&model.Task{Cycles: 10e9}, func(model.ExecReport) {}) // 10 s on 1 of 2 cores
	eng.RunUntil(20)
	u := c.Utilization()
	if math.Abs(u-0.25) > 0.01 {
		t.Fatalf("Utilization = %g, want ~0.25", u)
	}
}

// TestExecuteSteadyStateAllocatesNothing holds a warm site's execution,
// queueing for a core included, to zero allocations.
func TestExecuteSteadyStateAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	cfg := SmallSite()
	cfg.Servers, cfg.Cores = 1, 1
	c := New(eng, cfg)
	task := &model.Task{ID: 1, Cycles: 3e9}
	done := func(model.ExecReport) {}
	cycle := func() {
		c.Execute(task, done)
		c.Execute(task, done) // queues behind the first
		eng.Run()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("edge execution allocates %v times, want 0", n)
	}
}
