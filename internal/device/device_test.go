package device

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"offload/internal/model"
	"offload/internal/sim"
)

func testConfig() Config {
	return Config{
		Name:         "test",
		CPUHz:        1e9, // 1 GHz
		Cores:        2,
		ActivePowerW: 2,
		TxPowerW:     1,
		RxPowerW:     0.5,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"valid", func(c *Config) {}, ""},
		{"zero cpu", func(c *Config) { c.CPUHz = 0 }, "CPUHz"},
		{"zero cores", func(c *Config) { c.Cores = 0 }, "Cores"},
		{"negative power", func(c *Config) { c.TxPowerW = -1 }, "power"},
		{"negative battery", func(c *Config) { c.BatteryJ = -1 }, "battery"},
		{"NaN cpu", func(c *Config) { *c = Smartphone(); c.CPUHz = math.NaN() }, "CPUHz"},
		{"NaN power", func(c *Config) { c.ActivePowerW = math.NaN() }, "power"},
		{"NaN battery", func(c *Config) { c.BatteryJ = math.NaN() }, "battery"},
		{"NaN radio tail", func(c *Config) { c.RadioTailS = math.NaN() }, "radio tail"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (tt.wantErr == "") != (err == nil) {
				t.Fatalf("Validate() = %v, wantErr=%q", err, tt.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestPresetsValid(t *testing.T) {
	for _, cfg := range []Config{Smartphone(), IoTSensor(), Laptop()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s: %v", cfg.Name, err)
		}
	}
	if Smartphone().CPUHz <= IoTSensor().CPUHz {
		t.Error("smartphone should be faster than IoT sensor")
	}
	if Laptop().BatteryJ != 0 {
		t.Error("laptop should be mains powered")
	}
}

func TestExecuteDuration(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	task := &model.Task{ID: 1, Cycles: 2e9} // 2 s at 1 GHz
	var rep model.ExecReport
	d.Execute(task, func(r model.ExecReport) { rep = r })
	eng.Run()
	if rep.Err != nil {
		t.Fatalf("Execute failed: %v", rep.Err)
	}
	if math.Abs(float64(rep.Duration())-2) > 1e-9 {
		t.Fatalf("local exec duration = %v, want 2", rep.Duration())
	}
	if rep.CostUSD != 0 {
		t.Fatalf("local execution billed %v dollars", rep.CostUSD)
	}
}

func TestExecuteQueuesBeyondCores(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig()) // 2 cores
	var ends []sim.Time
	for i := 0; i < 4; i++ {
		d.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) {
			ends = append(ends, r.End)
		})
	}
	eng.Run()
	if len(ends) != 4 {
		t.Fatalf("got %d completions", len(ends))
	}
	for i, want := range []float64{1, 1, 2, 2} {
		if math.Abs(float64(ends[i])-want) > 1e-9 {
			t.Fatalf("completion %d at %v, want %v", i, ends[i], want)
		}
	}
	// Third task waited one second.
	if d.Executed() != 4 {
		t.Fatalf("Executed = %d", d.Executed())
	}
}

func TestComputeEnergy(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	task := &model.Task{Cycles: 3e9} // 3 s at 2 W = 6 J
	if got := d.ComputeEnergyMilliJ(task); math.Abs(got-6000) > 1e-6 {
		t.Fatalf("ComputeEnergyMilliJ = %g, want 6000", got)
	}
	d.Execute(task, func(model.ExecReport) {})
	eng.Run()
	if math.Abs(d.DrainedJ()-6) > 1e-9 {
		t.Fatalf("DrainedJ = %g, want 6", d.DrainedJ())
	}
}

func TestRadioEnergy(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	up := d.RadioEnergyMilliJ(2, true) // 2 s at 1 W = 2000 mJ
	if math.Abs(up-2000) > 1e-9 {
		t.Fatalf("uplink energy = %g, want 2000", up)
	}
	down := d.RadioEnergyMilliJ(2, false) // 2 s at 0.5 W
	if math.Abs(down-1000) > 1e-9 {
		t.Fatalf("downlink energy = %g, want 1000", down)
	}
	if math.Abs(d.DrainedJ()-3) > 1e-9 {
		t.Fatalf("DrainedJ = %g, want 3", d.DrainedJ())
	}
}

func TestRadioTailEnergyBilledOncePerIdleGap(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.RadioTailS = 2
	cfg.RadioTailPowerW = 1
	d := New(eng, cfg)

	// One 1-second uplink at t=0: 1 J transmission + 2 J tail.
	got := d.RadioEnergyMilliJ(1, true)
	if math.Abs(got-3000) > 1e-9 {
		t.Fatalf("first transfer energy = %g mJ, want 3000", got)
	}

	// A second transfer starting inside the tail window (t=1, tail runs to
	// t=2) bills only the tail extension: 1 J tx + tail [2, 3] = 1 J.
	eng.At(1, func() {
		if got := d.RadioEnergyMilliJ(1, true); math.Abs(got-2000) > 1e-9 {
			t.Errorf("in-tail transfer energy = %g mJ, want 2000", got)
		}
	})
	// A transfer long after the tail expired pays the full tail again.
	eng.At(100, func() {
		if got := d.RadioEnergyMilliJ(1, true); math.Abs(got-3000) > 1e-9 {
			t.Errorf("post-tail transfer energy = %g mJ, want 3000", got)
		}
	})
	eng.Run()
}

func TestRadioTailDisabledByDefault(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	if got := d.RadioEnergyMilliJ(1, true); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("no-tail transfer energy = %g mJ, want 1000", got)
	}
}

func TestSmartphoneLTEPreset(t *testing.T) {
	cfg := SmartphoneLTE()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.RadioTailS <= 0 || cfg.RadioTailPowerW <= 0 {
		t.Fatal("LTE preset has no tail")
	}
	if Smartphone().RadioTailS != 0 {
		t.Fatal("WiFi smartphone grew a tail")
	}
}

func TestBatteryExhaustion(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.BatteryJ = 5 // enough for ~2.5 s of compute at 2 W
	d := New(eng, cfg)

	var errs []error
	for i := 0; i < 3; i++ {
		d.Execute(&model.Task{Cycles: 1.5e9}, func(r model.ExecReport) {
			errs = append(errs, r.Err)
		})
	}
	eng.Run()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("early tasks failed: %v", errs)
	}
	// Battery is dead after two 3 J draws — but the third task was admitted
	// before death (all submitted at t=0 on 2 cores), so run a fourth.
	var last error
	d.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) { last = r.Err })
	eng.Run()
	if !errors.Is(last, ErrBatteryDead) {
		t.Fatalf("task on dead device returned %v, want ErrBatteryDead", last)
	}
	if !d.Dead() {
		t.Fatal("device not marked dead")
	}
	if d.BatteryRemainingJ() != 0 {
		t.Fatalf("BatteryRemainingJ = %g on dead device", d.BatteryRemainingJ())
	}
}

func TestMainsPoweredNeverDies(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig()) // BatteryJ == 0
	for i := 0; i < 100; i++ {
		d.Execute(&model.Task{Cycles: 1e12}, func(r model.ExecReport) {
			if r.Err != nil {
				t.Errorf("mains-powered device failed: %v", r.Err)
			}
		})
	}
	eng.Run()
	if d.Dead() {
		t.Fatal("mains-powered device died")
	}
	if d.BatteryRemainingJ() != -1 {
		t.Fatalf("BatteryRemainingJ = %g, want -1 sentinel", d.BatteryRemainingJ())
	}
}

// TestDVFSSlowsAndSaves runs a task at half frequency and holds it to the
// full-speed estimates planners read: twice ExecTime, half
// ComputeEnergyMilliJ.
func TestDVFSSlowsAndSaves(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	task := &model.Task{Cycles: 1e9}
	fullTime := d.ExecTime(task)
	fullEnergy := d.ComputeEnergyMilliJ(task)

	var rep model.ExecReport
	d.ExecuteScaled(task, 0.5, func(r model.ExecReport) { rep = r })
	eng.Run()
	if got := rep.Duration(); math.Abs(float64(got)-2*float64(fullTime)) > 1e-9 {
		t.Fatalf("half-speed duration = %v, want %v", got, 2*fullTime)
	}
	// Energy = P*f^2 * (t/f) = P*t*f: half frequency halves energy here.
	if got := d.DrainedJ() * 1000; math.Abs(got-fullEnergy/2) > 1e-6 {
		t.Fatalf("half-speed energy = %g mJ, want %g", got, fullEnergy/2)
	}
}

func TestExecuteScaledStretchesTimeAndSavesEnergy(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	task := &model.Task{Cycles: 2e9}
	var full, half model.ExecReport
	d.Execute(task, func(r model.ExecReport) { full = r })
	eng.Run()
	fullDrain := d.DrainedJ()
	d.ExecuteScaled(task, 0.5, func(r model.ExecReport) { half = r })
	eng.Run()
	halfDrain := d.DrainedJ() - fullDrain
	if math.Abs(float64(half.Duration())-2*float64(full.Duration())) > 1e-9 {
		t.Fatalf("half-speed duration %v, want double %v", half.Duration(), full.Duration())
	}
	// E ∝ f: half frequency, half energy.
	if math.Abs(halfDrain-fullDrain/2) > 1e-9 {
		t.Fatalf("half-speed drain %g J, want %g", halfDrain, fullDrain/2)
	}
}

func TestExecuteScaledValidation(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	for _, s := range []float64{0, -0.5, 1.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExecuteScaled(%g) did not panic", s)
				}
			}()
			d.ExecuteScaled(&model.Task{Cycles: 1}, s, func(model.ExecReport) {})
		}()
	}
}

func TestExecTimeScalesWithCycles(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	f := func(mcycles uint16) bool {
		task := &model.Task{Cycles: float64(mcycles) * 1e6}
		want := float64(mcycles) * 1e6 / 1e9
		return math.Abs(float64(d.ExecTime(task))-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteSteadyStateAllocatesNothing holds a warm device's local
// execution, core grant and energy accounting included, to zero
// allocations.
func TestExecuteSteadyStateAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, Laptop())
	task := &model.Task{ID: 1, Cycles: 1e9}
	done := func(model.ExecReport) {}
	cycle := func() {
		d.ExecuteScaled(task, 0.5, done)
		d.ExecuteScaled(task, 1, done)
		eng.Run()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("local execution allocates %v times, want 0", n)
	}
}
