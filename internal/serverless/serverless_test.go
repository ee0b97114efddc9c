package serverless

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sim"
)

// testConfig returns a platform with deterministic (zero) cold starts and
// simple round numbers: 1 GHz per vCPU, full share at 1 GB.
func testConfig() Config {
	return Config{
		Name:             "test",
		MinMemory:        128 * model.MB,
		MaxMemory:        4096 * model.MB,
		MemoryStep:       128 * model.MB,
		BaselineHz:       1e9,
		FullShareBytes:   1024 * model.MB,
		MaxShare:         4,
		KeepAlive:        60,
		ConcurrencyLimit: 10,
		Price: PriceTable{
			PerRequestUSD:  2e-7,
			PerGBSecondUSD: 1.6667e-5,
			Granularity:    0.001,
			MinBilled:      0.001,
		},
	}
}

func newTestPlatform(t *testing.T, cfg Config) (*sim.Engine, *Platform) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, NewPlatform(eng, rng.New(1), cfg)
}

func deploy(t *testing.T, p *Platform, name string, memMB int64) *Function {
	t.Helper()
	f, err := p.Deploy(FunctionConfig{Name: name, MemoryBytes: memMB * model.MB})
	if err != nil {
		t.Fatalf("Deploy(%s, %d MB): %v", name, memMB, err)
	}
	return f
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(c *Config) {}, true},
		{"zero min memory", func(c *Config) { c.MinMemory = 0 }, false},
		{"max below min", func(c *Config) { c.MaxMemory = c.MinMemory - 1 }, false},
		{"zero step", func(c *Config) { c.MemoryStep = 0 }, false},
		{"zero cpu", func(c *Config) { c.BaselineHz = 0 }, false},
		{"zero full share", func(c *Config) { c.FullShareBytes = 0 }, false},
		{"zero max share", func(c *Config) { c.MaxShare = 0 }, false},
		{"NaN cpu", func(c *Config) { c.BaselineHz = math.NaN() }, false},
		{"infinite cpu", func(c *Config) { c.BaselineHz = math.Inf(1) }, false},
		{"NaN max share", func(c *Config) { c.MaxShare = math.NaN() }, false},
		{"infinite max share", func(c *Config) { c.MaxShare = math.Inf(1) }, false},
		{"ladder at bound", func(c *Config) { c.MaxMemory = c.MinMemory + (maxLadderRungs-1)*c.MemoryStep }, true},
		{"ladder past bound", func(c *Config) { c.MaxMemory = c.MinMemory + maxLadderRungs*c.MemoryStep }, false},
		{"one-byte steps over 10 GB", func(c *Config) { c.MemoryStep = 1; c.MaxMemory = 10 * model.GB }, false},
		{"zero concurrency", func(c *Config) { c.ConcurrencyLimit = 0 }, false},
		{"negative keepalive", func(c *Config) { c.KeepAlive = -1 }, false},
		{"NaN keepalive", func(c *Config) { c.KeepAlive = sim.Duration(math.NaN()) }, false},
		{"NaN timeout", func(c *Config) { c.DefaultTimeout = sim.Duration(math.NaN()) }, false},
		{"NaN pressure penalty", func(c *Config) { c.PressurePenalty = math.NaN() }, false},
		{"NaN pressure knee", func(c *Config) { c.PressureKneeRatio = math.NaN() }, false},
		{"NaN failure rate", func(c *Config) { c.FailureRate = math.NaN() }, false},
		{"negative price", func(c *Config) { c.Price.PerRequestUSD = -1 }, false},
		{"zero granularity", func(c *Config) { c.Price.Granularity = 0 }, false},
		{"negative cold start", func(c *Config) { c.ColdStart.MedianSec = -1 }, false},
		{"NaN cold start", func(c *Config) { c.ColdStart.Sigma = math.NaN() }, false},
		{"NaN price", func(c *Config) { c.Price.PerGBSecondUSD = math.NaN() }, false},
		{"NaN granularity", func(c *Config) { c.Price.Granularity = sim.Duration(math.NaN()) }, false},
		{"NaN provisioned price", func(c *Config) { c.Price.ProvisionedGBSecondUSD = math.NaN() }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			if got := cfg.Validate() == nil; got != tt.ok {
				t.Fatalf("Validate() ok = %v, want %v (%v)", got, tt.ok, cfg.Validate())
			}
		})
	}
}

func TestLambdaLikeValid(t *testing.T) {
	if err := LambdaLike().Validate(); err != nil {
		t.Fatalf("LambdaLike invalid: %v", err)
	}
	ladder := LambdaLike().MemoryLadder()
	if ladder[0] != 128*model.MB || ladder[len(ladder)-1] != 10240*model.MB {
		t.Fatalf("LambdaLike ladder endpoints wrong: %d..%d", ladder[0], ladder[len(ladder)-1])
	}
}

func TestMemoryLadderEndingAtMaxInt64(t *testing.T) {
	// Stepping m += MemoryStep past the last rung would wrap to a negative
	// size that still compares <= MaxMemory, and never terminate.
	cfg := Config{MinMemory: math.MaxInt64 - 2*model.GB, MaxMemory: math.MaxInt64, MemoryStep: model.GB}
	ladder := cfg.MemoryLadder()
	want := []int64{math.MaxInt64 - 2*model.GB, math.MaxInt64 - model.GB, math.MaxInt64}
	if len(ladder) != len(want) {
		t.Fatalf("ladder has %d rungs, want %d", len(ladder), len(want))
	}
	for i, m := range want {
		if ladder[i] != m {
			t.Fatalf("rung %d = %d, want %d", i, ladder[i], m)
		}
	}
}

func TestBillRoundsUpToGranularity(t *testing.T) {
	p := PriceTable{PerRequestUSD: 0, PerGBSecondUSD: 1, Granularity: 0.1, MinBilled: 0}
	tests := []struct {
		dur  sim.Duration
		want float64 // billed seconds for a 1 GB function
	}{
		{0.01, 0.1},
		{0.1, 0.1},
		{0.11, 0.2},
		{1.0, 1.0},
	}
	for _, tt := range tests {
		got := p.Bill(model.GB, tt.dur)
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Bill(1GB, %v) = %g, want %g", tt.dur, got, tt.want)
		}
	}
}

func TestBillMinimum(t *testing.T) {
	p := PriceTable{PerGBSecondUSD: 1, Granularity: 0.001, MinBilled: 0.1}
	if got := p.Bill(model.GB, 0.001); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("Bill below minimum = %g, want 0.1", got)
	}
}

func TestBillMonotone(t *testing.T) {
	p := LambdaLike().Price
	f := func(ms1, ms2 uint16) bool {
		d1, d2 := sim.Duration(ms1)/1000, sim.Duration(ms2)/1000
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return p.Bill(model.GB, d1) <= p.Bill(model.GB, d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCPUShareScaling(t *testing.T) {
	cfg := testConfig()
	if got := cfg.CPUShare(512 * model.MB); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("CPUShare(512MB) = %g, want 0.5", got)
	}
	if got := cfg.CPUShare(1024 * model.MB); math.Abs(got-1) > 1e-9 {
		t.Fatalf("CPUShare(1GB) = %g, want 1", got)
	}
	// Cap at MaxShare = 4 even for giant memory.
	if got := cfg.CPUShare(100 * 1024 * model.MB); got != 4 {
		t.Fatalf("CPUShare(100GB) = %g, want cap 4", got)
	}
}

func TestExecTimeSerialDoesNotImproveAboveFullShare(t *testing.T) {
	cfg := testConfig()
	task := &model.Task{Cycles: 1e9} // 1 s at one vCPU, fully serial
	at1GB := cfg.ExecTime(task, 1024*model.MB)
	at4GB := cfg.ExecTime(task, 4096*model.MB)
	if math.Abs(float64(at1GB)-1) > 1e-9 {
		t.Fatalf("ExecTime at 1GB = %v, want 1", at1GB)
	}
	if math.Abs(float64(at4GB-at1GB)) > 1e-9 {
		t.Fatalf("serial task sped up above full share: %v vs %v", at4GB, at1GB)
	}
}

func TestExecTimeParallelAmdahl(t *testing.T) {
	cfg := testConfig()
	task := &model.Task{Cycles: 1e9, ParallelFraction: 0.8}
	at4GB := cfg.ExecTime(task, 4096*model.MB) // share 4
	want := 1.0 / (1 / (0.2 + 0.8/4))          // = 0.4 s
	if math.Abs(float64(at4GB)-want) > 1e-9 {
		t.Fatalf("Amdahl ExecTime = %v, want %v", at4GB, want)
	}
}

func TestExecTimeBelowFullShareLinear(t *testing.T) {
	cfg := testConfig()
	task := &model.Task{Cycles: 1e9}
	at512 := cfg.ExecTime(task, 512*model.MB)
	if math.Abs(float64(at512)-2) > 1e-9 {
		t.Fatalf("ExecTime at half share = %v, want 2", at512)
	}
}

func TestExecTimeMonotoneInMemory(t *testing.T) {
	cfg := testConfig()
	task := &model.Task{Cycles: 5e8, ParallelFraction: 0.5}
	prev := sim.Duration(math.Inf(1))
	for _, m := range cfg.MemoryLadder() {
		d := cfg.ExecTime(task, m)
		if d > prev+1e-12 {
			t.Fatalf("ExecTime increased with memory at %d", m)
		}
		prev = d
	}
}

func TestPressureSlowdown(t *testing.T) {
	cfg := testConfig()
	cfg.PressureKneeRatio = 2
	cfg.PressurePenalty = 1.5
	ws := int64(512 * model.MB)
	if got := cfg.PressureSlowdown(ws, 2*ws); got != 1 {
		t.Fatalf("slowdown at knee = %g, want 1", got)
	}
	if got := cfg.PressureSlowdown(ws, 4*ws); got != 1 {
		t.Fatalf("slowdown with ample headroom = %g, want 1", got)
	}
	if got := cfg.PressureSlowdown(ws, ws); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("slowdown at just-fitting = %g, want 2.5", got)
	}
	mid := cfg.PressureSlowdown(ws, ws+ws/2) // ratio 1.5, tight 0.5
	if math.Abs(mid-(1+1.5*0.25)) > 1e-9 {
		t.Fatalf("slowdown at ratio 1.5 = %g, want 1.375", mid)
	}
	// Disabled configurations never slow down.
	disabled := testConfig()
	if got := disabled.PressureSlowdown(ws, ws); got != 1 {
		t.Fatalf("disabled pressure slowdown = %g", got)
	}
	if got := cfg.PressureSlowdown(0, ws); got != 1 {
		t.Fatalf("zero working set slowdown = %g", got)
	}
}

func TestPressureMakesExecTimeNonMonotoneCostCurve(t *testing.T) {
	cfg := testConfig()
	cfg.PressureKneeRatio = 2
	cfg.PressurePenalty = 1.5
	task := &model.Task{Cycles: 10e9, MemoryBytes: 512 * model.MB}
	tight := cfg.ExecTime(task, 512*model.MB)
	roomy := cfg.ExecTime(task, 1024*model.MB)
	if tight <= roomy*2 {
		t.Fatalf("pressure too weak: tight %v vs roomy %v", tight, roomy)
	}
}

func TestDeployValidation(t *testing.T) {
	_, p := newTestPlatform(t, testConfig())
	tests := []struct {
		name string
		fc   FunctionConfig
		ok   bool
	}{
		{"valid", FunctionConfig{Name: "f", MemoryBytes: 256 * model.MB}, true},
		{"empty name", FunctionConfig{MemoryBytes: 256 * model.MB}, false},
		{"below min", FunctionConfig{Name: "f2", MemoryBytes: 64 * model.MB}, false},
		{"above max", FunctionConfig{Name: "f3", MemoryBytes: 8192 * model.MB}, false},
		{"off step", FunctionConfig{Name: "f4", MemoryBytes: 200 * model.MB}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := p.Deploy(tt.fc)
			if (err == nil) != tt.ok {
				t.Fatalf("Deploy = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestInvokeColdThenWarm(t *testing.T) {
	cfg := testConfig()
	cfg.ColdStart = ColdStartModel{MedianSec: 0.5, Sigma: 0} // deterministic 0.5 s
	eng, p := newTestPlatform(t, cfg)
	f := deploy(t, p, "fn", 1024)

	task := &model.Task{Cycles: 1e9}
	var first, second model.ExecReport
	f.Execute(task, func(r model.ExecReport) {
		first = r
		f.Execute(task, func(r2 model.ExecReport) { second = r2 })
	})
	eng.Run()

	if first.ColdStart != 0.5 {
		t.Fatalf("first invocation cold start = %v, want 0.5", first.ColdStart)
	}
	if math.Abs(float64(first.Duration())-1.5) > 1e-9 {
		t.Fatalf("first duration = %v, want 1.5", first.Duration())
	}
	if second.ColdStart != 0 {
		t.Fatalf("second invocation cold start = %v, want warm", second.ColdStart)
	}
	if f.ColdStarts() != 1 || f.Invocations() != 2 {
		t.Fatalf("ColdStarts=%d Invocations=%d", f.ColdStarts(), f.Invocations())
	}
}

func TestKeepAliveExpiry(t *testing.T) {
	cfg := testConfig()
	cfg.ColdStart = ColdStartModel{MedianSec: 0.5, Sigma: 0}
	cfg.KeepAlive = 10
	eng, p := newTestPlatform(t, cfg)
	f := deploy(t, p, "fn", 1024)

	task := &model.Task{Cycles: 1e9}
	f.Execute(task, func(model.ExecReport) {})
	eng.RunUntil(5) // execution done at 1.5, keep-alive expires at 11.5
	if f.WarmContainers() != 1 {
		t.Fatalf("WarmContainers = %d after first run", f.WarmContainers())
	}

	// Invoke again after the keep-alive expired: must be cold.
	var rep model.ExecReport
	eng.At(30, func() {
		f.Execute(task, func(r model.ExecReport) { rep = r })
	})
	eng.Run()
	if rep.ColdStart == 0 {
		t.Fatal("invocation after keep-alive expiry was warm")
	}
	if f.ColdStarts() != 2 {
		t.Fatalf("ColdStarts = %d, want 2", f.ColdStarts())
	}
}

func TestWarmReuseWithinKeepAlive(t *testing.T) {
	cfg := testConfig()
	cfg.ColdStart = ColdStartModel{MedianSec: 0.5, Sigma: 0}
	cfg.KeepAlive = 100
	eng, p := newTestPlatform(t, cfg)
	f := deploy(t, p, "fn", 1024)

	task := &model.Task{Cycles: 1e9}
	f.Execute(task, func(model.ExecReport) {})
	var rep model.ExecReport
	eng.At(50, func() {
		f.Execute(task, func(r model.ExecReport) { rep = r })
	})
	eng.Run()
	if rep.ColdStart != 0 {
		t.Fatal("invocation within keep-alive was cold")
	}
}

func TestConcurrencyLimitQueues(t *testing.T) {
	cfg := testConfig()
	cfg.ConcurrencyLimit = 2
	eng, p := newTestPlatform(t, cfg)
	f := deploy(t, p, "fn", 1024)

	var ends []sim.Time
	for i := 0; i < 4; i++ {
		f.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) {
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
}

func TestOutOfMemoryRejected(t *testing.T) {
	eng, p := newTestPlatform(t, testConfig())
	f := deploy(t, p, "small", 128)
	var rep model.ExecReport
	f.Execute(&model.Task{Cycles: 1, MemoryBytes: 512 * model.MB}, func(r model.ExecReport) { rep = r })
	eng.Run()
	if !errors.Is(rep.Err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", rep.Err)
	}
}

func TestTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.DefaultTimeout = 2
	eng, p := newTestPlatform(t, cfg)
	f := deploy(t, p, "fn", 1024)
	var rep model.ExecReport
	f.Execute(&model.Task{Cycles: 10e9}, func(r model.ExecReport) { rep = r }) // 10 s > 2 s
	eng.Run()
	if !errors.Is(rep.Err, ErrTimedOut) {
		t.Fatalf("err = %v, want ErrTimedOut", rep.Err)
	}
	if math.Abs(float64(rep.Duration())-2) > 1e-9 {
		t.Fatalf("timed-out duration = %v, want 2", rep.Duration())
	}
	if rep.CostUSD == 0 {
		t.Fatal("timeout was not billed")
	}
}

func TestRedeployDiscardsWarmContainers(t *testing.T) {
	cfg := testConfig()
	cfg.ColdStart = ColdStartModel{MedianSec: 0.5, Sigma: 0}
	eng, p := newTestPlatform(t, cfg)
	f := deploy(t, p, "fn", 1024)
	f.Execute(&model.Task{Cycles: 1e9}, func(model.ExecReport) {})
	eng.RunUntil(5)
	if f.WarmContainers() != 1 {
		t.Fatal("no warm container after first run")
	}
	deploy(t, p, "fn", 2048) // reconfigure
	if f.WarmContainers() != 0 {
		t.Fatal("redeploy kept warm containers")
	}
	var rep model.ExecReport
	f.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) { rep = r })
	eng.Run()
	if rep.ColdStart == 0 {
		t.Fatal("invocation after redeploy was warm")
	}
}

func TestBillingAccumulates(t *testing.T) {
	eng, p := newTestPlatform(t, testConfig())
	f := deploy(t, p, "fn", 1024)
	for i := 0; i < 5; i++ {
		f.Execute(&model.Task{Cycles: 1e9}, func(model.ExecReport) {})
	}
	eng.Run()
	// 5 × (2e-7 + 1 GB × 1 s × 1.6667e-5)
	want := 5 * (2e-7 + 1.6667e-5)
	if math.Abs(f.BilledUSD()-want)/want > 1e-6 {
		t.Fatalf("BilledUSD = %g, want %g", f.BilledUSD(), want)
	}
	if math.Abs(p.Stats().BilledUSD-want)/want > 1e-6 {
		t.Fatalf("platform BilledUSD = %g, want %g", p.Stats().BilledUSD, want)
	}
	if p.Stats().Invocations != 5 {
		t.Fatalf("Invocations = %d", p.Stats().Invocations)
	}
}

func TestColdStartSampleScalesWithMemory(t *testing.T) {
	m := ColdStartModel{MedianSec: 0.2, Sigma: 0, PerGBExtra: 1}
	src := rng.New(1)
	small := m.sample(src, model.GB)
	big := m.sample(src, 4*model.GB)
	if big <= small {
		t.Fatalf("cold start did not grow with memory: %v vs %v", small, big)
	}
}

func TestStatsColdWarmCounts(t *testing.T) {
	cfg := testConfig()
	cfg.ColdStart = ColdStartModel{MedianSec: 0.1, Sigma: 0}
	eng, p := newTestPlatform(t, cfg)
	f := deploy(t, p, "fn", 1024)
	// Sequential invocations: 1 cold + 4 warm.
	var chain func(i int)
	chain = func(i int) {
		if i == 5 {
			return
		}
		f.Execute(&model.Task{Cycles: 1e8}, func(model.ExecReport) { chain(i + 1) })
	}
	chain(0)
	eng.Run()
	s := p.Stats()
	if s.ColdStarts != 1 || s.WarmStarts != 4 {
		t.Fatalf("ColdStarts=%d WarmStarts=%d, want 1/4", s.ColdStarts, s.WarmStarts)
	}
}

// TestExecuteSteadyStateAllocatesNothing holds a warm platform's
// invocations to zero allocations: a warm start that parks its container
// again, then a cold start after the keep-alive has expired it.
func TestExecuteSteadyStateAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPlatform(eng, rng.New(1), LambdaLike())
	f, err := p.Deploy(FunctionConfig{Name: "fn", MemoryBytes: 1024 * model.MB})
	if err != nil {
		t.Fatal(err)
	}
	task := &model.Task{ID: 1, Cycles: 1e9, MemoryBytes: 64 * model.MB}
	done := func(model.ExecReport) {}
	cycle := func() {
		f.Execute(task, done)
		eng.RunUntil(eng.Now() + 10)
		f.Execute(task, done) // warm start
		eng.Run()             // and the keep-alive expiry
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("invocations allocate %v times, want 0", n)
	}
	if p.Stats().WarmStarts == 0 || p.Stats().ColdStarts == 0 {
		t.Fatalf("stats %+v: want both warm and cold starts", p.Stats())
	}
}
