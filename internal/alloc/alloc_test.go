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

// chooseBySweep is the reference selection Choose must reproduce: scan the
// whole Sweep in ascending memory, skip sizes below the floor, keep the
// fastest, and keep the cheapest feasible with ties toward smaller memory.
func chooseBySweep(a *Allocator, req Request) (Decision, error) {
	decisions, err := a.Sweep(req)
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
	got, gotErr := a.Choose(req)
	want, wantErr := chooseBySweep(a, req)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s %+v: Choose error %v, reference error %v", platform, req, gotErr, wantErr)
	}
	if got != want {
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
		if best.Feasible && a.lowerBound(&req, serial, a.cfg.Rung(i))*(1-1e-9) > best.ExpectedCostUSD {
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
			lb := a.lowerBound(&req, serial, a.cfg.Rung(i))
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

func TestPlanBatchAmortisesColdStartAndRequests(t *testing.T) {
	a := New(platformConfig())
	req := Request{Cycles: 1e9, ColdStartProb: 1}
	plan, err := a.PlanBatch(req, 1024*model.MB, 10)
	if err != nil {
		t.Fatal(err)
	}
	single := a.Evaluate(req, 1024*model.MB)
	if plan.PerTaskCostUSD >= single.ExpectedCostUSD {
		t.Fatalf("batching did not save: %g >= %g", plan.PerTaskCostUSD, single.ExpectedCostUSD)
	}
	if plan.SavingsVsUnbatched <= 0 {
		t.Fatalf("SavingsVsUnbatched = %g", plan.SavingsVsUnbatched)
	}
	// Batch trades latency for money: per-task time grows.
	if plan.PerTaskTime <= single.ExpectedTime {
		t.Fatalf("batched per-task time %v not above single %v", plan.PerTaskTime, single.ExpectedTime)
	}
}

func TestPlanBatchValidation(t *testing.T) {
	a := New(platformConfig())
	if _, err := a.PlanBatch(Request{Cycles: 1}, 1024*model.MB, 0); err == nil {
		t.Fatal("batch size 0 accepted")
	}
	if _, err := a.PlanBatch(Request{Cycles: -1}, 1024*model.MB, 1); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestChoosePipelineUnbounded(t *testing.T) {
	a := New(platformConfig())
	reqs := []Request{{Cycles: 5e9}, {Cycles: 10e9}, {Cycles: 2e9}}
	pd, err := a.ChoosePipeline(reqs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !pd.Feasible || len(pd.Stages) != 3 {
		t.Fatalf("unbounded pipeline: %+v", pd)
	}
	// Must equal the sum of independent choices.
	sum := 0.0
	for _, r := range reqs {
		d, err := a.Choose(r)
		if err != nil {
			t.Fatal(err)
		}
		sum += d.ExpectedCostUSD
	}
	if math.Abs(pd.TotalCostUSD-sum) > 1e-12 {
		t.Fatalf("unbounded pipeline cost %g != sum of choices %g", pd.TotalCostUSD, sum)
	}
}

func TestChoosePipelineBudgetForcesFasterStages(t *testing.T) {
	a := New(platformConfig())
	reqs := []Request{{Cycles: 10e9}, {Cycles: 10e9}}
	loose, err := a.ChoosePipeline(reqs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := a.ChoosePipeline(reqs, 25, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !tight.Feasible {
		t.Fatalf("25 s budget infeasible: total %v", tight.TotalTime)
	}
	if tight.TotalTime > 25 {
		t.Fatalf("pipeline exceeded budget: %v", tight.TotalTime)
	}
	if tight.TotalCostUSD < loose.TotalCostUSD-1e-12 {
		t.Fatal("tight budget cheaper than unbounded optimum")
	}
}

func TestChoosePipelineInfeasibleBudget(t *testing.T) {
	a := New(platformConfig())
	reqs := []Request{{Cycles: 100e9}, {Cycles: 100e9}} // 100 s each at best
	pd, err := a.ChoosePipeline(reqs, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Feasible {
		t.Fatal("impossible pipeline budget reported feasible")
	}
	if len(pd.Stages) != 2 {
		t.Fatalf("fallback did not allocate all stages: %d", len(pd.Stages))
	}
}

func TestChoosePipelineRejectsStageBudgets(t *testing.T) {
	a := New(platformConfig())
	if _, err := a.ChoosePipeline([]Request{{Cycles: 1, TimeBudget: 5}}, 10, 100); err == nil {
		t.Fatal("stage-level budget accepted in pipeline mode")
	}
	if _, err := a.ChoosePipeline(nil, 0, 0); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	if _, err := a.ChoosePipeline([]Request{{Cycles: 1}}, 10, 0); err == nil {
		t.Fatal("zero slots with budget accepted")
	}
}

func TestChoosePipelineMatchesBruteForceSmall(t *testing.T) {
	// Brute-force over a coarsened ladder to validate the DP.
	cfg := platformConfig()
	cfg.MemoryStep = 1024 * model.MB // ladder: 1152? No — min 128: 128, 1152, 2176, 3200, 4224>max → 4 sizes
	a := New(cfg)
	reqs := []Request{{Cycles: 8e9}, {Cycles: 4e9}}
	budget := sim.Duration(30)
	pd, err := a.ChoosePipeline(reqs, budget, 400)
	if err != nil {
		t.Fatal(err)
	}
	ladder := cfg.MemoryLadder()
	bestCost := math.Inf(1)
	for _, m1 := range ladder {
		for _, m2 := range ladder {
			d1 := a.Evaluate(reqs[0], m1)
			d2 := a.Evaluate(reqs[1], m2)
			if d1.ExpectedTime+d2.ExpectedTime <= budget {
				if c := d1.ExpectedCostUSD + d2.ExpectedCostUSD; c < bestCost {
					bestCost = c
				}
			}
		}
	}
	if !pd.Feasible {
		t.Fatal("DP found no feasible plan but brute force should")
	}
	// DP rounds times up to slots, so it may be slightly conservative, but
	// never better than brute force and within a small factor of it.
	if pd.TotalCostUSD < bestCost-1e-12 {
		t.Fatalf("DP cost %g beats brute force %g", pd.TotalCostUSD, bestCost)
	}
	if pd.TotalCostUSD > bestCost*1.25 {
		t.Fatalf("DP cost %g far above brute force %g", pd.TotalCostUSD, bestCost)
	}
}
