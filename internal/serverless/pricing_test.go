package serverless

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sim"
)

func offPeakPrice() PriceTable {
	return PriceTable{
		PerGBSecondUSD:   1e-5,
		Granularity:      0.001,
		MinBilled:        0.001,
		OffPeakFactor:    0.4,
		OffPeakStartHour: 22,
		OffPeakEndHour:   6,
	}
}

func TestInOffPeakWrapsMidnight(t *testing.T) {
	p := offPeakPrice()
	tests := []struct {
		hour float64
		want bool
	}{
		{23, true}, {0, true}, {5.9, true},
		{6, false}, {12, false}, {21.9, false}, {22, true},
	}
	for _, tt := range tests {
		at := sim.Time(tt.hour * 3600)
		if got := p.InOffPeak(at); got != tt.want {
			t.Errorf("InOffPeak(hour %g) = %v, want %v", tt.hour, got, tt.want)
		}
	}
	// Second day behaves identically.
	if !p.InOffPeak(sim.Time(24*3600 + 2*3600)) {
		t.Error("02:00 on day 2 not off-peak")
	}
}

func TestInOffPeakNonWrappingWindow(t *testing.T) {
	p := offPeakPrice()
	p.OffPeakStartHour, p.OffPeakEndHour = 2, 8
	if !p.InOffPeak(sim.Time(3 * 3600)) {
		t.Error("03:00 not in [2, 8)")
	}
	if p.InOffPeak(sim.Time(9 * 3600)) {
		t.Error("09:00 in [2, 8)")
	}
}

func TestNextOffPeakStart(t *testing.T) {
	p := offPeakPrice()
	// At 10:00, next window opens 22:00 the same day (within the
	// deliberate few-millisecond safety nudge).
	got := p.NextOffPeakStart(sim.Time(10 * 3600))
	if math.Abs(float64(got)-22*3600) > 0.01 {
		t.Fatalf("NextOffPeakStart(10:00) = %v, want ~22:00", got)
	}
	if !p.InOffPeak(got) {
		t.Fatal("NextOffPeakStart result not inside the window")
	}
	// Already inside: unchanged.
	at := sim.Time(23 * 3600)
	if p.NextOffPeakStart(at) != at {
		t.Fatal("NextOffPeakStart inside window moved")
	}
	// No schedule: unchanged.
	flat := PriceTable{PerGBSecondUSD: 1, Granularity: 0.001}
	if flat.NextOffPeakStart(at) != at {
		t.Fatal("NextOffPeakStart without schedule moved")
	}
}

func TestNextOffPeakStartAlwaysLandsInWindow(t *testing.T) {
	p := offPeakPrice()
	f := func(minutes uint32) bool {
		at := sim.Time(minutes) * 60
		return p.InOffPeak(p.NextOffPeakStart(at))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBillAtAppliesDiscount(t *testing.T) {
	p := offPeakPrice()
	peak := p.BillAt(model.GB, 1, sim.Time(12*3600))
	off := p.BillAt(model.GB, 1, sim.Time(23*3600))
	if math.Abs(off/peak-0.4) > 1e-9 {
		t.Fatalf("off-peak/peak = %g, want 0.4", off/peak)
	}
	if math.Abs(p.Bill(model.GB, 1)-peak) > 1e-12 {
		t.Fatal("Bill should be the peak rate")
	}
}

func TestOffPeakValidation(t *testing.T) {
	bad := []func(*PriceTable){
		func(p *PriceTable) { p.OffPeakFactor = -0.1 },
		func(p *PriceTable) { p.OffPeakStartHour = 25 },
		func(p *PriceTable) { p.OffPeakEndHour = -1 },
		func(p *PriceTable) { p.OffPeakStartHour, p.OffPeakEndHour = 5, 5 },
		func(p *PriceTable) { p.ProvisionedGBSecondUSD = -1 },
	}
	for i, mutate := range bad {
		p := offPeakPrice()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad price table %d validated", i)
		}
	}
}

func TestPlatformBillsOffPeakInvocations(t *testing.T) {
	cfg := testConfig()
	cfg.Price.OffPeakFactor = 0.5
	cfg.Price.OffPeakStartHour = 22
	cfg.Price.OffPeakEndHour = 6
	eng, p := newTestPlatform(t, cfg)
	f := deploy(t, p, "fn", 1024)

	var peakCost, offCost float64
	eng.At(sim.Time(12*3600), func() { // noon: peak
		f.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) { peakCost = r.CostUSD })
	})
	eng.At(sim.Time(23*3600), func() { // 23:00: off-peak
		f.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) { offCost = r.CostUSD })
	})
	eng.Run()
	if offCost >= peakCost {
		t.Fatalf("off-peak invocation ($%g) not cheaper than peak ($%g)", offCost, peakCost)
	}
}

func TestProvisionedConcurrencySkipsColdStarts(t *testing.T) {
	cfg := testConfig()
	cfg.ColdStart = ColdStartModel{MedianSec: 0.5, Sigma: 0}
	cfg.KeepAlive = 0 // no on-demand keep-alive: every non-provisioned start is cold
	eng, p := newTestPlatform(t, cfg)
	f, err := p.Deploy(FunctionConfig{
		Name: "warm", MemoryBytes: 1024 * model.MB, ProvisionedConcurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two concurrent invocations: one takes the provisioned slot, the
	// second must cold start.
	var colds int
	for i := 0; i < 2; i++ {
		f.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) {
			if r.ColdStart > 0 {
				colds++
			}
		})
	}
	eng.Run()
	if colds != 1 {
		t.Fatalf("cold starts = %d, want 1 (one provisioned slot)", colds)
	}
	// Sequential invocations afterwards reuse the freed provisioned slot.
	var rep model.ExecReport
	f.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) { rep = r })
	eng.Run()
	if rep.ColdStart != 0 {
		t.Fatal("freed provisioned slot not reused")
	}
}

func TestProvisionedCapacityFeeAccrues(t *testing.T) {
	cfg := testConfig()
	cfg.Price.ProvisionedGBSecondUSD = 1e-6
	eng, p := newTestPlatform(t, cfg)
	if _, err := p.Deploy(FunctionConfig{
		Name: "warm", MemoryBytes: 1024 * model.MB, ProvisionedConcurrency: 2,
	}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(3600)
	want := 2 * 1.0 * 3600 * 1e-6 // 2 slots × 1 GB × 1 h
	got := p.ProvisionedCostUSD()
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("ProvisionedCostUSD = %g, want %g", got, want)
	}
}

// TestProvisionedCostSumsInNameOrder accrues capacity fees on four
// functions whose float sum depends on the order it is taken in. The
// platform total must equal the name-order sum to the bit on every call,
// whatever order the function map iterates in.
func TestProvisionedCostSumsInNameOrder(t *testing.T) {
	cfg := testConfig()
	cfg.Price.ProvisionedGBSecondUSD = 1.1e-6
	eng, p := newTestPlatform(t, cfg)
	names := []string{"delta", "alpha", "charlie", "bravo"}
	for i, name := range names {
		if _, err := p.Deploy(FunctionConfig{
			Name: name, MemoryBytes: int64(1+3*i) * 128 * model.MB, ProvisionedConcurrency: 1 + 5*i,
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(3333.3)
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	fees := make([]float64, len(sorted))
	want := 0.0
	for i, name := range sorted {
		fees[i] = p.Function(name).ProvisionedCostUSD()
		want += fees[i]
	}
	if (fees[3]+fees[2])+fees[1]+fees[0] == want && (fees[1]+fees[3])+fees[0]+fees[2] == want {
		t.Fatal("fees sum the same in every order; the test cannot see the order")
	}
	for try := 0; try < 20; try++ {
		if got := p.ProvisionedCostUSD(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("try %d: ProvisionedCostUSD = %v, name-order sum %v", try, got, want)
		}
	}
}

func TestProvisionedNegativeRejected(t *testing.T) {
	_, p := newTestPlatform(t, testConfig())
	if _, err := p.Deploy(FunctionConfig{
		Name: "bad", MemoryBytes: 1024 * model.MB, ProvisionedConcurrency: -1,
	}); err == nil {
		t.Fatal("negative provisioned concurrency accepted")
	}
}

func TestTransientFailureBilledAndNotParked(t *testing.T) {
	cfg := testConfig()
	cfg.FailureRate = 0.9999
	cfg.ColdStart = ColdStartModel{MedianSec: 0.5, Sigma: 0}
	eng := sim.NewEngine()
	p := NewPlatform(eng, rng.New(7), cfg)
	f := deploy(t, p, "flaky", 1024)
	var rep model.ExecReport
	f.Execute(&model.Task{Cycles: 1e9}, func(r model.ExecReport) { rep = r })
	eng.RunUntil(5)
	if !errors.Is(rep.Err, ErrTransient) {
		t.Fatalf("Err = %v, want ErrTransient", rep.Err)
	}
	if rep.CostUSD <= 0 {
		t.Fatal("crash not billed")
	}
	if f.WarmContainers() != 0 {
		t.Fatal("crashed container parked as warm")
	}
}
