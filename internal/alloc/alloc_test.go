package alloc

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"offload/internal/model"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// platformConfig returns a platform with easy numbers: ladder 128 MB–4 GB
// in 128 MB steps, 1 GHz per vCPU at 1 GB, deterministic 0.5 s cold start.
func platformConfig() serverless.Config {
	return serverless.Config{
		Name:              "alloc-test",
		MinMemory:         128 * model.MB,
		MaxMemory:         4096 * model.MB,
		MemoryStep:        128 * model.MB,
		BaselineHz:        1e9,
		FullShareBytes:    1024 * model.MB,
		MaxShare:          4,
		ColdStart:         serverless.ColdStartModel{MedianSec: 0.5, Sigma: 0},
		KeepAlive:         420,
		ConcurrencyLimit:  100,
		PressureKneeRatio: 2.0,
		PressurePenalty:   1.5,
		Price: serverless.PriceTable{
			PerRequestUSD:  2e-7,
			PerGBSecondUSD: 1.6667e-5,
			Granularity:    0.001,
			MinBilled:      0.001,
		},
	}
}

func TestRequestValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Request{
		{Cycles: -1},
		{ParallelFraction: -0.1},
		{ParallelFraction: 1.1},
		{MemoryFloorBytes: -1},
		{TimeBudget: -1},
		{ColdStartProb: -0.1},
		{ColdStartProb: 1.1},
		{Cycles: nan},
		{Cycles: inf},
		{Cycles: -inf},
		{ParallelFraction: nan},
		{ParallelFraction: inf},
		{TimeBudget: sim.Duration(nan)},
		{TimeBudget: sim.Duration(inf)},
		{ColdStartProb: nan},
		{ColdStartProb: -inf},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad request %d %+v validated", i, r)
		}
	}
	if err := (Request{Cycles: 1e9}).Validate(); err != nil {
		t.Errorf("good request rejected: %v", err)
	}
}

func TestCostCurveIsUShapedAndChooseFindsMinimum(t *testing.T) {
	a := New(platformConfig())
	// A 512 MB working set: memory pressure inflates billed time at the
	// low end, wasted GB-seconds dominate at the high end.
	req := Request{Cycles: 10e9, MemoryFloorBytes: 512 * model.MB}
	sweep, err := a.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	var feasible []Decision
	for _, d := range sweep {
		if d.MemoryBytes >= req.MemoryFloorBytes {
			feasible = append(feasible, d)
		}
	}
	first, last := feasible[0], feasible[len(feasible)-1]
	best := feasible[0]
	for _, d := range feasible {
		if d.ExpectedCostUSD < best.ExpectedCostUSD {
			best = d
		}
	}
	if !(best.ExpectedCostUSD < first.ExpectedCostUSD) {
		t.Fatalf("interior optimum (%g at %d MB) not below smallest memory (%g)",
			best.ExpectedCostUSD, best.MemoryBytes/model.MB, first.ExpectedCostUSD)
	}
	if !(best.ExpectedCostUSD < last.ExpectedCostUSD) {
		t.Fatalf("interior optimum (%g) not below largest memory (%g)",
			best.ExpectedCostUSD, last.ExpectedCostUSD)
	}
	choice, err := a.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if choice.MemoryBytes != best.MemoryBytes {
		t.Fatalf("Choose picked %d MB, sweep optimum is %d MB",
			choice.MemoryBytes/model.MB, best.MemoryBytes/model.MB)
	}
}

func TestChooseRespectsMemoryFloor(t *testing.T) {
	a := New(platformConfig())
	req := Request{Cycles: 1e9, MemoryFloorBytes: 2048 * model.MB}
	d, err := a.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.MemoryBytes < 2048*model.MB {
		t.Fatalf("Choose ignored memory floor: %d MB", d.MemoryBytes/model.MB)
	}
}

func TestChooseRespectsTimeBudget(t *testing.T) {
	a := New(platformConfig())
	// 10 s serial at 1 vCPU: at 128 MB it takes 80 s. Budget of 15 s
	// requires at least 683 MB.
	req := Request{Cycles: 10e9, TimeBudget: 15}
	d, err := a.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible {
		t.Fatal("feasible budget reported infeasible")
	}
	if d.ExpectedTime > 15 {
		t.Fatalf("ExpectedTime %v exceeds budget", d.ExpectedTime)
	}
}

func TestChooseInfeasibleBudgetReturnsFastest(t *testing.T) {
	a := New(platformConfig())
	// Serial 100 s task can't beat 5 s at any memory.
	req := Request{Cycles: 100e9, TimeBudget: 5}
	d, err := a.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Feasible {
		t.Fatal("impossible budget reported feasible")
	}
	// Fastest serial config is anything >= full share; expect full-share time.
	if math.Abs(float64(d.ExpectedTime)-100.5) > 1e-6 { // 100 s + 0.5 s expected cold? prob 0 default
		// ColdStartProb defaults to 0, so expected time is exec only.
		if math.Abs(float64(d.ExpectedTime)-100) > 1e-6 {
			t.Fatalf("fastest fallback time = %v", d.ExpectedTime)
		}
	}
}

func TestChooseErrorsWhenFloorExceedsPlatform(t *testing.T) {
	a := New(platformConfig())
	if _, err := a.Choose(Request{Cycles: 1, MemoryFloorBytes: 64 * model.GB}); err == nil {
		t.Fatal("oversized working set accepted")
	}
}

func TestColdStartProbRaisesTimeAndCost(t *testing.T) {
	a := New(platformConfig())
	base := a.Evaluate(Request{Cycles: 1e9}, 1024*model.MB)
	cold := a.Evaluate(Request{Cycles: 1e9, ColdStartProb: 1}, 1024*model.MB)
	if cold.ExpectedTime <= base.ExpectedTime {
		t.Fatal("cold-start probability did not raise expected time")
	}
	if cold.ExpectedCostUSD <= base.ExpectedCostUSD {
		t.Fatal("cold-start probability did not raise expected cost")
	}
	if math.Abs(float64(cold.ExpectedTime-base.ExpectedTime)-0.5) > 1e-9 {
		t.Fatalf("cold penalty = %v, want 0.5", cold.ExpectedTime-base.ExpectedTime)
	}
}

func TestParallelTaskMeetsDeadlineWithLargeMemory(t *testing.T) {
	a := New(platformConfig())
	// 40 s of serial work can never beat a 15 s budget; a 95%-parallel task
	// can, but only by buying >1 vCPU — i.e. more than full-share memory.
	serial := Request{Cycles: 40e9, TimeBudget: 15}
	parallel := Request{Cycles: 40e9, ParallelFraction: 0.95, TimeBudget: 15}
	ds, err := a.Choose(serial)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Feasible {
		t.Fatal("serial 40 s task reported feasible under a 15 s budget")
	}
	dp, err := a.Choose(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !dp.Feasible {
		t.Fatal("parallel task infeasible under a 15 s budget")
	}
	if dp.MemoryBytes <= 1024*model.MB {
		t.Fatalf("parallel task met the budget with %d MB, expected >1 vCPU worth",
			dp.MemoryBytes/model.MB)
	}
	if dp.ExpectedTime > 15 {
		t.Fatalf("chosen config misses budget: %v", dp.ExpectedTime)
	}
}

func TestEvaluateTimeMonotoneNonIncreasingInMemory(t *testing.T) {
	a := New(platformConfig())
	f := func(gcycles uint8, pf uint8) bool {
		req := Request{
			Cycles:           float64(gcycles%100+1) * 1e8,
			ParallelFraction: float64(pf%101) / 100,
		}
		prev := sim.Duration(math.Inf(1))
		for _, m := range platformConfig().MemoryLadder() {
			d := a.Evaluate(req, m)
			if d.ExpectedTime > prev+1e-12 {
				return false
			}
			prev = d.ExpectedTime
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// refEvaluate is evaluate as it was before rung records, kept verbatim
// as the reference for the sizing arithmetic: it prices a size through
// Config.ExecTime and PriceTable.Bill, recomputing everything per size.
func refEvaluate(a *Allocator, req *Request, memBytes int64) Decision {
	task := model.Task{
		Cycles:           req.Cycles,
		ParallelFraction: req.ParallelFraction,
		MemoryBytes:      req.MemoryFloorBytes,
	}
	exec := a.cfg.ExecTime(&task, memBytes)
	cold := refExpectedCold(a, memBytes)
	expTime := exec + sim.Duration(req.ColdStartProb*float64(cold))
	// Expected bill: cold invocations are billed for init + run.
	cost := req.ColdStartProb*a.cfg.Price.Bill(memBytes, cold+exec) +
		(1-req.ColdStartProb)*a.cfg.Price.Bill(memBytes, exec)
	d := Decision{
		MemoryBytes:     memBytes,
		ExpectedTime:    expTime,
		ExpectedCostUSD: cost,
		Feasible:        memBytes >= req.MemoryFloorBytes,
	}
	if req.TimeBudget > 0 && expTime > req.TimeBudget {
		d.Feasible = false
	}
	return d
}

// refExpectedCold is expectedCold, kept verbatim for refEvaluate.
func refExpectedCold(a *Allocator, memBytes int64) sim.Duration {
	cs := a.cfg.ColdStart
	if cs.MedianSec == 0 {
		return 0
	}
	return sim.Duration(a.coldMean + cs.PerGBExtra*float64(memBytes)/float64(model.GB))
}

// refSweep is Sweep through refEvaluate.
func refSweep(a *Allocator, req Request) ([]Decision, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	out := make([]Decision, a.cfg.LadderLen())
	for i := range out {
		out[i] = refEvaluate(a, &req, a.cfg.Rung(i))
	}
	return out, nil
}

// sameDecision reports whether two decisions agree in every field, the
// floats bit for bit.
func sameDecision(x, y Decision) bool {
	return x.MemoryBytes == y.MemoryBytes && x.Feasible == y.Feasible &&
		math.Float64bits(float64(x.ExpectedTime)) == math.Float64bits(float64(y.ExpectedTime)) &&
		math.Float64bits(x.ExpectedCostUSD) == math.Float64bits(y.ExpectedCostUSD)
}

// chooseBySweep is the reference selection Choose must reproduce: scan the
// whole reference sweep in ascending memory, skip sizes below the floor,
// keep the fastest, and keep the cheapest feasible with ties toward
// smaller memory.
func chooseBySweep(a *Allocator, req Request) (Decision, error) {
	decisions, err := refSweep(a, req)
	if err != nil {
		return Decision{}, err
	}
	var best, fastest Decision
	haveBest, haveFastest := false, false
	for _, d := range decisions {
		if d.MemoryBytes < req.MemoryFloorBytes {
			continue
		}
		if !haveFastest || d.ExpectedTime < fastest.ExpectedTime {
			fastest, haveFastest = d, true
		}
		if d.Feasible && (!haveBest || d.ExpectedCostUSD < best.ExpectedCostUSD-1e-15) {
			best, haveBest = d, true
		}
	}
	switch {
	case haveBest:
		return best, nil
	case haveFastest:
		return fastest, nil
	}
	return Decision{}, fmt.Errorf("reference: floor %d above every ladder size", req.MemoryFloorBytes)
}

// checkSizingMatchesReference holds Sweep at every rung, and Evaluate on
// and off the ladder, to refEvaluate in every field, bit for bit.
func checkSizingMatchesReference(t *testing.T, a *Allocator, platform string, req Request) {
	t.Helper()
	got, gotErr := a.Sweep(req)
	want, wantErr := refSweep(a, req)
	if (gotErr != nil) != (wantErr != nil) || len(got) != len(want) {
		t.Fatalf("%s %+v: Sweep returned %d decisions (error %v), reference %d (error %v)",
			platform, req, len(got), gotErr, len(want), wantErr)
	}
	for i := range got {
		if !sameDecision(got[i], want[i]) {
			t.Fatalf("%s %+v: Sweep rung %d = %+v, reference = %+v", platform, req, i, got[i], want[i])
		}
	}
	cfg := &a.cfg
	sizes := []int64{
		1,
		cfg.MinMemory - 1,
		cfg.MinMemory,
		cfg.MinMemory + cfg.MemoryStep/3,
		cfg.Rung(cfg.LadderLen()/2) + 1,
		cfg.MaxMemory,
		cfg.MaxMemory + cfg.MemoryStep/2,
		cfg.FullShareBytes,
		req.MemoryFloorBytes,
		req.MemoryFloorBytes + 1,
	}
	for _, m := range sizes {
		if m <= 0 {
			continue
		}
		if got, want := a.Evaluate(req, m), refEvaluate(a, &req, m); !sameDecision(got, want) {
			t.Fatalf("%s %+v: Evaluate(%d) = %+v, reference = %+v", platform, req, m, got, want)
		}
	}
}

// TestChooseAlwaysMatchesSweepArgmin holds Choose to the reference
// selection over Sweep, field for field and bit for bit, across platforms,
// budgets (none, tight, infeasible), cold-start probabilities and memory
// floors below, on, between and above the ladder.
func TestChooseAlwaysMatchesSweepArgmin(t *testing.T) {
	configs := []serverless.Config{platformConfig(), serverless.LambdaLike(), serverless.GCFLike()}
	for _, cfg := range configs {
		a := New(cfg)
		floors := []int64{
			0,
			cfg.MinMemory / 2,
			cfg.MinMemory,
			cfg.MinMemory + 3*cfg.MemoryStep,
			cfg.MinMemory + 3*cfg.MemoryStep + cfg.MemoryStep/2,
			cfg.MaxMemory - 1,
			cfg.MaxMemory,
			cfg.MaxMemory + 1,
		}
		checkChooseMatchesReference(t, a, cfg.Name, Request{Cycles: -1})
		for _, cycles := range []float64{1e7, 3e9, 5e10} {
			for _, pf := range []float64{0, 0.5, 0.95} {
				for _, floor := range floors {
					for _, cold := range []float64{0, 0.3, 1} {
						base := Request{Cycles: cycles, ParallelFraction: pf, MemoryFloorBytes: floor, ColdStartProb: cold}
						for _, budget := range budgets(t, a, base) {
							req := base
							req.TimeBudget = budget
							checkChooseMatchesReference(t, a, cfg.Name, req)
						}
					}
				}
			}
		}
	}
}

// budgets returns no budget, a tight one that only the faster half of the
// sizes above the floor meet, and one no size meets.
func budgets(t *testing.T, a *Allocator, req Request) []sim.Duration {
	t.Helper()
	sweep, err := a.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	var above []Decision
	for _, d := range sweep {
		if d.MemoryBytes >= req.MemoryFloorBytes {
			above = append(above, d)
		}
	}
	if len(above) == 0 {
		return []sim.Duration{0, 1}
	}
	fastest := above[0].ExpectedTime
	for _, d := range above {
		fastest = min(fastest, d.ExpectedTime)
	}
	tight := above[len(above)/2].ExpectedTime
	return []sim.Duration{0, tight, fastest / 2}
}

func checkChooseMatchesReference(t *testing.T, a *Allocator, platform string, req Request) {
	t.Helper()
	checkSizingMatchesReference(t, a, platform, req)
	got, gotErr := a.Choose(req)
	want, wantErr := chooseBySweep(a, req)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s %+v: Choose error %v, reference error %v", platform, req, gotErr, wantErr)
	}
	if !sameDecision(got, want) {
		t.Fatalf("%s %+v: Choose = %+v, reference = %+v", platform, req, got, want)
	}
}

func TestChooseMatchesReferenceOnRandomRequests(t *testing.T) {
	a := New(serverless.LambdaLike())
	f := func(gcycles uint16, pf, floor, cold uint8, budget uint16) bool {
		req := Request{
			Cycles:           float64(gcycles%500+1) * 2e8,
			ParallelFraction: float64(pf%101) / 100,
			MemoryFloorBytes: int64(floor) * 48 * model.MB,
			ColdStartProb:    float64(cold%101) / 100,
			TimeBudget:       sim.Duration(budget%400) / 4,
		}
		got, gotErr := a.Choose(req)
		want, wantErr := chooseBySweep(a, req)
		return got == want && (gotErr != nil) == (wantErr != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestChooseNearTieKeepsSmallerMemory: with a GB-second price so small
// that every size's bill lies within the 1e-15 tie tolerance of the
// smallest, or a zero price that makes every bill equal, the smallest
// size at or above the floor must win.
func TestChooseNearTieKeepsSmallerMemory(t *testing.T) {
	for _, price := range []float64{0, 1e-22} {
		cfg := platformConfig()
		cfg.Price.PerGBSecondUSD = price
		a := New(cfg)
		// Floors below, between and on rungs of the 128 MB ladder.
		for _, tc := range []struct{ floor, want int64 }{
			{0, 128 * model.MB},
			{300 * model.MB, 384 * model.MB},
			{1024 * model.MB, 1024 * model.MB},
		} {
			req := Request{Cycles: 5e9, ParallelFraction: 0.9, MemoryFloorBytes: tc.floor, ColdStartProb: 0.3}
			got, err := a.Choose(req)
			if err != nil {
				t.Fatal(err)
			}
			if got != a.Evaluate(req, tc.want) {
				t.Fatalf("price %g floor %d MB: Choose picked %d MB, want the smallest size %d MB",
					price, tc.floor/model.MB, got.MemoryBytes/model.MB, tc.want/model.MB)
			}
			checkChooseMatchesReference(t, a, cfg.Name, req)
		}
	}
}

func TestChooseAllocatesNothing(t *testing.T) {
	a := New(serverless.LambdaLike())
	for _, req := range []Request{benchChooseRequest, benchChooseUncutRequest} {
		if got := testing.AllocsPerRun(100, func() { _, _ = a.Choose(req) }); got != 0 {
			t.Fatalf("Choose(%+v): %v allocs per call, want 0", req, got)
		}
	}
}

// cutRung returns the index of the rung at which Choose stops walking the
// ladder for req: the first rung past the floor whose lower bound exceeds
// the chosen cost, or LadderLen when the bound never fires.
func cutRung(t testing.TB, a *Allocator, req Request) int {
	t.Helper()
	best, err := a.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	serial := req.Cycles / a.cfg.BaselineHz
	n := a.cfg.LadderLen()
	for i := a.firstRung(req.MemoryFloorBytes); i < n; i++ {
		r := a.newRung(a.cfg.Rung(i))
		if best.Feasible && a.lowerBound(&req, serial, &r)*(1-1e-9) > best.ExpectedCostUSD {
			return i
		}
	}
	return n
}

// TestChooseLowerBoundHolds checks the cut-off's bound itself rather than
// only Choose's result: along every ladder the bound never decreases, and
// the cost at every size is at least the bound at every smaller size.
func TestChooseLowerBoundHolds(t *testing.T) {
	check := func(a *Allocator, name string, req Request) {
		t.Helper()
		serial := req.Cycles / a.cfg.BaselineHz
		n := a.cfg.LadderLen()
		prev := math.Inf(-1)
		for i := 0; i < n; i++ {
			r := a.newRung(a.cfg.Rung(i))
			lb := a.lowerBound(&req, serial, &r)
			if lb < prev {
				t.Fatalf("%s %+v: bound falls from %g to %g at rung %d", name, req, prev, lb, i)
			}
			prev = lb
			for j := i; j < n; j++ {
				if c := a.Evaluate(req, a.cfg.Rung(j)).ExpectedCostUSD; c < lb*(1-1e-9) {
					t.Fatalf("%s %+v: cost %g at rung %d below the bound %g of rung %d", name, req, c, j, lb, i)
				}
			}
		}
	}
	for _, cfg := range []serverless.Config{platformConfig(), serverless.LambdaLike(), serverless.GCFLike()} {
		a := New(cfg)
		for _, cycles := range []float64{0, 1e7, 3e9, 5e10, 1e13} {
			for _, pf := range []float64{0, 0.5, 0.95, 1} {
				for _, cold := range []float64{0, 0.3, 1} {
					for _, floor := range []int64{0, 512 * model.MB, 3 * model.GB} {
						check(a, cfg.Name, Request{Cycles: cycles, ParallelFraction: pf,
							MemoryFloorBytes: floor, ColdStartProb: cold})
					}
				}
			}
		}
		f := func(gcycles uint16, pf, floor, cold uint8) bool {
			check(a, cfg.Name, Request{
				Cycles:           float64(gcycles%500+1) * 2e8,
				ParallelFraction: float64(pf%101) / 100,
				MemoryFloorBytes: int64(floor) * 48 * model.MB,
				ColdStartProb:    float64(cold%101) / 100,
			})
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(err)
		}
	}

	// The bound must do its job: on BenchmarkChoose's request the walk
	// stops well short of the top rung, while on BenchmarkChooseUncut's,
	// where every warm bill equals the bound, it never fires.
	a := New(serverless.LambdaLike())
	n := a.cfg.LadderLen()
	if got := cutRung(t, a, benchChooseRequest); got > n/2 {
		t.Fatalf("cut-off at rung %d of %d, want it in the lower half", got, n)
	}
	if got := cutRung(t, a, benchChooseUncutRequest); got != n {
		t.Fatalf("uncut request stopped at rung %d of %d", got, n)
	}
}

// benchChooseRequest sizes a function with a 1 GB floor, a cold-start share
// and a time budget; benchChooseUncutRequest is the same work, perfectly
// parallel and always warm, so the lower bound never stops the walk.
var (
	benchChooseRequest = Request{Cycles: 3e10, ParallelFraction: 0.8,
		MemoryFloorBytes: 1 << 30, ColdStartProb: 0.3, TimeBudget: 300}
	benchChooseUncutRequest = Request{Cycles: 3e10, ParallelFraction: 1,
		MemoryFloorBytes: 1 << 30, ColdStartProb: 0, TimeBudget: 300}
)

// BenchmarkChoose sizes a function on the 159-size Lambda-like ladder; the
// lower-bound cut-off stops the walk 16 rungs past the 1 GB floor.
func BenchmarkChoose(b *testing.B) { benchmarkChoose(b, benchChooseRequest) }

// BenchmarkChooseUncut is Choose's worst case: the bound never fires, so
// the walk prices every rung from the floor to the top of the ladder.
func BenchmarkChooseUncut(b *testing.B) { benchmarkChoose(b, benchChooseUncutRequest) }

func benchmarkChoose(b *testing.B, req Request) {
	a := New(serverless.LambdaLike())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Choose(req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestColdStartProbability(t *testing.T) {
	if got := ColdStartProbability(0, 100); got != 1 {
		t.Fatalf("zero rate probability = %g, want 1", got)
	}
	if got := ColdStartProbability(1, 0); got != 1 {
		t.Fatalf("zero keep-alive probability = %g, want 1", got)
	}
	got := ColdStartProbability(0.01, 420)
	want := math.Exp(-4.2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("probability = %g, want %g", got, want)
	}
	// Monotone: higher rate → fewer cold starts.
	if ColdStartProbability(1, 60) >= ColdStartProbability(0.001, 60) {
		t.Fatal("cold-start probability not decreasing in rate")
	}
}
