package sched

import (
	"math"
	"slices"
	"testing"

	"offload/internal/cloudvm"
	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/serverless"
	"offload/internal/sim"
	"offload/internal/trace"
)

// testEnv builds a full environment with deterministic (no-jitter, no
// cold-start-noise) substrates: a 1 GHz 2-core device, a 2-machine edge
// site over a fast LAN, a serverless platform over a slower WAN, and a VM.
func testEnv(t *testing.T) *Env {
	t.Helper()
	eng := sim.NewEngine()
	src := rng.New(42)

	dev := device.New(eng, device.Config{
		Name: "ue", CPUHz: 1e9, Cores: 2,
		ActivePowerW: 2, TxPowerW: 1.2, RxPowerW: 0.9,
	})

	edgeCluster := edge.New(eng, edge.Config{
		Name: "edge", Servers: 2, Cores: 4, CPUHz: 3e9,
		HourlyCostUSD: 0.6, MemoryPerServer: 32 * model.GB,
	})
	edgePath := network.New(eng, src.Split(), network.Config{
		Name: "lan", OneWayDelay: 0.002, UplinkBps: 200e6, DownlinkBps: 200e6,
	})

	platform := serverless.NewPlatform(eng, src.Split(), serverless.Config{
		Name:       "faas",
		MinMemory:  128 * model.MB,
		MaxMemory:  8192 * model.MB,
		MemoryStep: 64 * model.MB,
		BaselineHz: 2.5e9, FullShareBytes: 1769 * model.MB, MaxShare: 6,
		ColdStart:        serverless.ColdStartModel{MedianSec: 0.3, Sigma: 0},
		KeepAlive:        420,
		ConcurrencyLimit: 1000,
		Price: serverless.PriceTable{
			PerRequestUSD: 2e-7, PerGBSecondUSD: 1.6667e-5,
			Granularity: 0.001, MinBilled: 0.001,
		},
		PressureKneeRatio: 2, PressurePenalty: 1.5,
	})
	cloudPath := network.New(eng, src.Split(), network.Config{
		Name: "wan", OneWayDelay: 0.025, UplinkBps: 50e6, DownlinkBps: 100e6,
	})

	vm := cloudvm.New(eng, cloudvm.Config{
		Name: "vm", Cores: 2, CPUHz: 3e9, HourlyCostUSD: 0.085,
		MinInstances: 1, MaxInstances: 1,
	})

	return &Env{
		Eng:       eng,
		Device:    dev,
		Edge:      edgeCluster,
		EdgePath:  edgePath,
		Functions: NewFunctionPool(platform),
		CloudPath: cloudPath,
		VM:        vm,
	}
}

func heavyTask(id model.TaskID) *model.Task {
	return &model.Task{
		ID: id, App: "heavy",
		InputBytes: model.MB, OutputBytes: 256 * model.KB,
		Cycles: 20e9, MemoryBytes: 512 * model.MB,
		ParallelFraction: 0.5, Deadline: 600,
	}
}

func TestEnvValidate(t *testing.T) {
	env := testEnv(t)
	if err := env.Validate(); err != nil {
		t.Fatalf("full env invalid: %v", err)
	}
	var nilEnv *Env
	if err := nilEnv.Validate(); err == nil {
		t.Fatal("nil env validated")
	}
	broken := *env
	broken.EdgePath = nil
	if err := broken.Validate(); err == nil {
		t.Fatal("edge without path validated")
	}
	broken = *env
	broken.CloudPath = nil
	if err := broken.Validate(); err == nil {
		t.Fatal("functions without path validated")
	}
}

func TestAvailablePlacements(t *testing.T) {
	env := testEnv(t)
	if got := len(env.Available()); got != 4 {
		t.Fatalf("Available = %d placements, want 4", got)
	}
	minimal := &Env{Eng: env.Eng, Device: env.Device}
	if got := len(minimal.Available()); got != 1 {
		t.Fatalf("minimal Available = %d, want 1", got)
	}
	// Once a scheduler is built on it, the list is fixed: the same
	// placements, in canonical order, without an allocation per call.
	if _, err := New(env, LocalOnly{}, Exact{}); err != nil {
		t.Fatal(err)
	}
	want := []model.Placement{model.PlaceLocal, model.PlaceEdge, model.PlaceFunction, model.PlaceVM}
	if got := env.Available(); !slices.Equal(got, want) {
		t.Fatalf("Available = %v, want %v", got, want)
	}
	if n := testing.AllocsPerRun(10, func() { env.Available() }); n != 0 {
		t.Fatalf("Available allocates %.0f per call", n)
	}
}

func runOne(t *testing.T, env *Env, p Policy, task *model.Task) model.Outcome {
	t.Helper()
	var out model.Outcome
	s, err := New(env, p, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	onSettle(s, func(o model.Outcome) { out = o })
	s.Submit(task)
	env.Eng.Run()
	return out
}

// onSettle subscribes fn to every outcome the scheduler settles.
func onSettle(s *Scheduler, fn func(model.Outcome)) {
	s.env.Events.Subscribe(trace.SubscriberFunc(func(ev trace.Event) {
		if ev.Kind == trace.KindSettle {
			fn(ev.Outcome)
		}
	}))
}

func TestLocalOnlyRunsLocal(t *testing.T) {
	env := testEnv(t)
	o := runOne(t, env, LocalOnly{}, heavyTask(1))
	if o.Placement != model.PlaceLocal || o.Failed {
		t.Fatalf("outcome: %+v", o)
	}
	// 20e9 cycles at 1 GHz = 20 s.
	if math.Abs(float64(o.CompletionTime())-20) > 1e-9 {
		t.Fatalf("local completion = %v, want 20", o.CompletionTime())
	}
	if o.CostUSD != 0 {
		t.Fatal("local execution cost money")
	}
	if o.EnergyMilliJ != 40000 { // 20 s × 2 W
		t.Fatalf("local energy = %g mJ, want 40000", o.EnergyMilliJ)
	}
}

func TestEdgeAllUsesEdgeAndPaysRadioEnergy(t *testing.T) {
	env := testEnv(t)
	o := runOne(t, env, EdgeAll{}, heavyTask(2))
	if o.Placement != model.PlaceEdge || o.Failed {
		t.Fatalf("outcome: %+v", o)
	}
	// Exec: 20e9/3e9 ≈ 6.67 s, plus small transfers.
	if got := float64(o.CompletionTime()); got < 6.6 || got > 7.5 {
		t.Fatalf("edge completion = %v", got)
	}
	if o.EnergyMilliJ <= 0 || o.EnergyMilliJ > 1000 {
		t.Fatalf("edge radio energy = %g mJ", o.EnergyMilliJ)
	}
	if env.Edge.Executed() != 1 {
		t.Fatal("edge did not execute the task")
	}
}

func TestCloudAllDeploysSizedFunctionAndBills(t *testing.T) {
	env := testEnv(t)
	o := runOne(t, env, CloudAll{}, heavyTask(3))
	if o.Placement != model.PlaceFunction || o.Failed {
		t.Fatalf("outcome: %+v", o)
	}
	if o.CostUSD <= 0 {
		t.Fatal("serverless execution billed nothing")
	}
	if o.Exec.ColdStart == 0 {
		t.Fatal("first invocation did not pay a cold start")
	}
	sized := env.Functions.Sized("heavy")
	if sized < 512*model.MB {
		t.Fatalf("function sized below working set: %d", sized)
	}
	if env.Functions.Platform().Stats().Invocations != 1 {
		t.Fatal("platform did not record the invocation")
	}
}

func TestVMAllUsesFleet(t *testing.T) {
	env := testEnv(t)
	o := runOne(t, env, VMAll{}, heavyTask(4))
	if o.Placement != model.PlaceVM || o.Failed {
		t.Fatalf("outcome: %+v", o)
	}
	if o.Exec.ColdStart != 0 {
		t.Fatal("VM reported a cold start")
	}
	if env.VM.Executed() != 1 {
		t.Fatal("fleet did not execute")
	}
}

func TestRandomCoversAllPlacements(t *testing.T) {
	env := testEnv(t)
	s, err := New(env, &Random{Src: rng.New(7)}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		task := heavyTask(model.TaskID(10 + i))
		task.Cycles = 1e8 // keep the run short
		s.Submit(task)
		env.Eng.Run()
	}
	st := s.Stats()
	used := 0
	for _, n := range st.ByPlacement {
		if n > 0 {
			used++
		}
	}
	if used < 3 {
		t.Fatalf("random policy used only %d placements: %v", used, st.ByPlacement)
	}
	if st.Completed != 40 {
		t.Fatalf("Completed = %d", st.Completed)
	}
}

func TestThresholdPolicySplitsByDemand(t *testing.T) {
	env := testEnv(t)
	pol := &Threshold{Cycles: 5e9}
	small := heavyTask(1)
	small.Cycles = 1e9
	if got := pol.Decide(small, env, Exact{}); got != model.PlaceLocal {
		t.Fatalf("small task placed at %v", got)
	}
	big := heavyTask(2)
	big.Cycles = 50e9
	if got := pol.Decide(big, env, Exact{}); got != model.PlaceFunction {
		t.Fatalf("big task placed at %v", got)
	}
	// Without serverless it degrades to local.
	env.Functions = nil
	if got := pol.Decide(big, env, Exact{}); got != model.PlaceLocal {
		t.Fatalf("big task without serverless placed at %v", got)
	}
}

func TestThresholdPolicyUsesPrediction(t *testing.T) {
	env := testEnv(t)
	pol := &Threshold{Cycles: 5e9}
	task := heavyTask(3)
	task.Cycles = 50e9 // truly big...
	pred := NewPerApp(1.0)
	pred.Observe(task, 1e8) // ...but predicted tiny
	if got := pol.Decide(task, env, pred); got != model.PlaceLocal {
		t.Fatalf("threshold ignored the predictor: %v", got)
	}
}

func TestDeadlineAwareAvoidsLocalForHeavyWork(t *testing.T) {
	env := testEnv(t)
	// 200 s of local work against a 600 s deadline: local is feasible but
	// burns ~400 J; remote placements cost micro-dollars. The policy must
	// offload.
	task := heavyTask(5)
	task.Cycles = 200e9
	o := runOne(t, env, NewDeadlineAware(), task)
	if o.Failed {
		t.Fatalf("outcome failed: %+v", o)
	}
	if o.Placement == model.PlaceLocal {
		t.Fatal("deadline-aware kept heavy work local")
	}
	if o.MissedDeadline() {
		t.Fatalf("missed deadline: completion %v", o.CompletionTime())
	}
}

func TestDeadlineAwareKeepsDataHeavyWorkLocal(t *testing.T) {
	env := testEnv(t)
	// 1 GB up for 0.1 s of compute: radio time and energy dwarf the local
	// cost, so local must win.
	task := &model.Task{
		ID: 6, App: "datah", InputBytes: model.GB, OutputBytes: model.GB,
		Cycles: 1e8, Deadline: 3600,
	}
	o := runOne(t, env, NewDeadlineAware(), task)
	if o.Placement != model.PlaceLocal {
		t.Fatalf("data-heavy task placed at %v", o.Placement)
	}
}

func TestDeadlineAwareAvoidsDeadDevice(t *testing.T) {
	env := testEnv(t)
	// Drain the battery-free test device? It is mains powered, so instead
	// build a drained battery device.
	eng := env.Eng
	dead := device.New(eng, device.Config{
		Name: "dying", CPUHz: 1e9, Cores: 1,
		ActivePowerW: 2, TxPowerW: 1, RxPowerW: 1, BatteryJ: 0.001,
	})
	dead.RadioEnergyMilliJ(1, true) // drains past capacity
	if !dead.Dead() {
		t.Fatal("setup: device not dead")
	}
	env.Device = dead
	task := heavyTask(7)
	o := runOne(t, env, NewDeadlineAware(), task)
	if o.Placement == model.PlaceLocal {
		t.Fatal("policy placed work on a dead device")
	}
}

func TestDeadlineAwareTightDeadlinePrefersFastPlacement(t *testing.T) {
	env := testEnv(t)
	// 20 s of local work with an 8 s deadline: only edge/cloud/VM (≥3 GHz)
	// can make it.
	task := heavyTask(8)
	task.Deadline = 8
	o := runOne(t, env, NewDeadlineAware(), task)
	if o.Placement == model.PlaceLocal {
		t.Fatal("local cannot meet an 8 s deadline for 20 s of work")
	}
	if o.MissedDeadline() {
		t.Fatalf("missed tight deadline: %v", o.CompletionTime())
	}
}

func TestSchedulerStatsAggregation(t *testing.T) {
	env := testEnv(t)
	s, err := New(env, CloudAll{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		task := heavyTask(model.TaskID(100 + i))
		task.Cycles = 2e9
		s.Submit(task)
		env.Eng.Run()
	}
	st := s.Stats()
	if st.Completed != 5 || st.Failed != 0 {
		t.Fatalf("Completed/Failed = %d/%d", st.Completed, st.Failed)
	}
	if st.CostUSD <= 0 || st.CostPerTask() <= 0 {
		t.Fatal("no cost recorded")
	}
	if st.EnergyPerTaskMilliJ() <= 0 {
		t.Fatal("no energy recorded")
	}
	if st.ByPlacement[model.PlaceFunction] != 5 {
		t.Fatalf("ByPlacement = %v", st.ByPlacement)
	}
	if st.MeanCompletion() <= 0 || st.P95Completion() < st.MeanCompletion() {
		t.Fatalf("completion stats: mean %g p95 %g", st.MeanCompletion(), st.P95Completion())
	}
}

func TestInvalidTaskFails(t *testing.T) {
	env := testEnv(t)
	s, err := New(env, LocalOnly{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(&model.Task{ID: 1, Cycles: -5})
	env.Eng.Run()
	if s.Stats().Failed != 1 {
		t.Fatal("invalid task not recorded as failure")
	}
}

func TestDispatchToMissingSubstrateFails(t *testing.T) {
	env := testEnv(t)
	env.Edge, env.EdgePath = nil, nil
	s, err := New(env, LocalOnly{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	s.Dispatch(heavyTask(9), model.PlaceEdge)
	env.Eng.Run()
	if s.Stats().Failed != 1 {
		t.Fatal("dispatch to missing edge did not fail")
	}
}

func TestWarmReuseAcrossTasks(t *testing.T) {
	env := testEnv(t)
	s, err := New(env, CloudAll{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	colds := 0
	onSettle(s, func(o model.Outcome) {
		if o.Exec.ColdStart > 0 {
			colds++
		}
	})
	// Submissions 5 s apart, well inside the 420 s keep-alive, inside one
	// simulation run so warm containers survive between tasks.
	for i := 0; i < 4; i++ {
		task := heavyTask(model.TaskID(200 + i))
		task.Cycles = 1e9
		env.Eng.At(sim.Time(i*5), func() { s.Submit(task) })
	}
	env.Eng.Run()
	if colds != 1 {
		t.Fatalf("cold starts = %d, want 1 (warm reuse)", colds)
	}
}

func TestPerAppPredictorLearns(t *testing.T) {
	p := NewPerApp(0.5)
	task := &model.Task{App: "x", Cycles: 42}
	// Before any observation, falls back to the task's own demand.
	if got := p.PredictCycles(task); got != 42 {
		t.Fatalf("cold prediction = %g", got)
	}
	for i := 0; i < 20; i++ {
		p.Observe(task, 100)
	}
	if got := p.PredictCycles(&model.Task{App: "x", Cycles: 1}); math.Abs(got-100) > 1 {
		t.Fatalf("learned prediction = %g, want ~100", got)
	}
	// Different app: unaffected.
	if got := p.PredictCycles(&model.Task{App: "y", Cycles: 7}); got != 7 {
		t.Fatalf("cross-app prediction = %g", got)
	}
}

func TestNoisyPredictorPerturbsButDelegatesObserve(t *testing.T) {
	inner := NewPerApp(0.5)
	n := NewNoisy(inner, rng.New(3), 0.3)
	task := &model.Task{App: "z", Cycles: 1e9}
	diff := false
	for i := 0; i < 20; i++ {
		if n.PredictCycles(task) != 1e9 {
			diff = true
		}
	}
	if !diff {
		t.Fatal("noisy predictor never perturbed")
	}
	n.Observe(task, 5e8)
	if inner.PredictCycles(&model.Task{App: "z"}) != 5e8 {
		t.Fatal("Observe not delegated to inner predictor")
	}
}

func TestFunctionPoolRedeploysOnDrift(t *testing.T) {
	env := testEnv(t)
	pool := env.Functions
	pool.RedeployTolerance = 0.5
	task := heavyTask(300)
	if _, err := pool.For(task, Exact{}); err != nil {
		t.Fatal(err)
	}
	memBefore := pool.Sized("heavy")
	grown := *task
	grown.Cycles = task.Cycles * 10
	grown.ParallelFraction = 0.95
	if _, err := pool.For(&grown, Exact{}); err != nil {
		t.Fatal(err)
	}
	if pool.Redeploys() != 1 {
		t.Fatalf("Redeploys = %d, want 1", pool.Redeploys())
	}
	// Small drift relative to the latest sizing: no redeploy.
	slight := grown
	slight.Cycles = grown.Cycles * 1.1
	if _, err := pool.For(&slight, Exact{}); err != nil {
		t.Fatal(err)
	}
	if pool.Redeploys() != 1 {
		t.Fatalf("Redeploys = %d after small drift, want 1", pool.Redeploys())
	}
	_ = memBefore
}

func TestBatcherAmortisesColdStarts(t *testing.T) {
	// Two identical environments, one batched, one not; sequential task
	// streams far apart so every unbatched invocation is cold.
	run := func(batch bool) (colds uint64, cost float64) {
		env := testEnv(t)
		// Short keep-alive: gaps between arrivals exceed it.
		cfg := env.Functions.Platform().Config()
		_ = cfg
		s, err := New(env, CloudAll{}, Exact{})
		if err != nil {
			t.Fatal(err)
		}
		var b *Batcher
		if batch {
			b, err = NewBatcher(s, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			task := heavyTask(model.TaskID(400 + i))
			task.Cycles = 1e9
			at := sim.Time(i) * 1000 // 1000 s apart ≫ 420 s keep-alive
			env.Eng.At(at, func() {
				if batch {
					b.Submit(task)
				} else {
					s.Submit(task)
				}
			})
		}
		if batch {
			env.Eng.At(3500, func() { b.Flush() })
		}
		env.Eng.Run()
		return env.Functions.Platform().Stats().ColdStarts, s.Stats().CostUSD
	}
	coldsUnbatched, _ := run(false)
	coldsBatched, _ := run(true)
	if coldsUnbatched != 4 {
		t.Fatalf("unbatched cold starts = %d, want 4", coldsUnbatched)
	}
	if coldsBatched != 1 {
		t.Fatalf("batched cold starts = %d, want 1", coldsBatched)
	}
}

func TestBatcherFlushOnSize(t *testing.T) {
	env := testEnv(t)
	s, err := New(env, CloudAll{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(s, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		task := heavyTask(model.TaskID(500 + i))
		task.Cycles = 1e9
		b.Submit(task)
	}
	env.Eng.Run()
	if b.Flushes() != 1 || b.Pending() != 0 {
		t.Fatalf("Flushes=%d Pending=%d", b.Flushes(), b.Pending())
	}
	if s.Stats().Completed != 3 {
		t.Fatalf("Completed = %d", s.Stats().Completed)
	}
}

// TestBatcherFlushDispatchesInAppOrder queues one task each for three
// applications and flushes them: the batches must start in app-name
// order on every try, whatever order the queue map iterates in.
func TestBatcherFlushDispatchesInAppOrder(t *testing.T) {
	for try := 0; try < 20; try++ {
		env := testEnv(t)
		var started []model.TaskID
		env.Events.Subscribe(trace.SubscriberFunc(func(ev trace.Event) {
			if ev.Kind == trace.KindAttemptStart {
				started = append(started, ev.Task)
			}
		}))
		s, err := New(env, CloudAll{}, Exact{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBatcher(s, 100, 0) // only Flush releases
		if err != nil {
			t.Fatal(err)
		}
		for i, app := range []string{"gamma", "alpha", "beta"} {
			task := heavyTask(model.TaskID(800 + i))
			task.App, task.Cycles = app, 1e9
			b.Submit(task)
		}
		b.Flush()
		if want := []model.TaskID{801, 802, 800}; !slices.Equal(started, want) {
			t.Fatalf("try %d: batches started as %v, want %v (alpha, beta, gamma)", try, started, want)
		}
		env.Eng.Run()
		if s.Stats().Completed != 3 {
			t.Fatalf("Completed = %d", s.Stats().Completed)
		}
	}
}

func TestBatcherFlushOnTimer(t *testing.T) {
	env := testEnv(t)
	s, err := New(env, CloudAll{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(s, 100, 50) // huge size, 50 s max wait
	if err != nil {
		t.Fatal(err)
	}
	task := heavyTask(600)
	task.Cycles = 1e9
	b.Submit(task)
	env.Eng.Run()
	if s.Stats().Completed != 1 {
		t.Fatal("timer flush did not dispatch")
	}
	if env.Eng.Now() < 50 {
		t.Fatalf("flush happened before MaxWait: %v", env.Eng.Now())
	}
}

func TestBatcherNonServerlessBypasses(t *testing.T) {
	env := testEnv(t)
	s, err := New(env, LocalOnly{}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(s, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	task := heavyTask(700)
	task.Cycles = 1e9
	b.Submit(task)
	env.Eng.Run()
	if s.Stats().Completed != 1 {
		t.Fatal("bypass task not completed")
	}
	if b.Batched() != 0 {
		t.Fatal("local task counted as batched")
	}
}

func TestBatcherValidation(t *testing.T) {
	env := testEnv(t)
	s, _ := New(env, CloudAll{}, Exact{})
	if _, err := NewBatcher(nil, 1, 0); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := NewBatcher(s, 0, 0); err == nil {
		t.Fatal("zero batch size accepted")
	}
	if _, err := NewBatcher(s, 1, -1); err == nil {
		t.Fatal("negative wait accepted")
	}
}
