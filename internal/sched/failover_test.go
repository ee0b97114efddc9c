package sched

import (
	"fmt"
	"testing"

	"offload/internal/fault"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sim"
)

// twoRegionEnv is testEnv with an outage schedule installed on the
// serverless platform; tests home it in "east" and the VM in "west".
func twoRegionEnv(t *testing.T, outages ...fault.Window) *Env {
	t.Helper()
	env := testEnv(t)
	if len(outages) > 0 {
		inj, err := fault.New(rng.New(7), fault.Config{Outages: outages})
		if err != nil {
			t.Fatal(err)
		}
		env.Functions.Platform().SetFaultInjector(inj)
	}
	return env
}

func twoRegionFailover(ladder *Ladder) Failover {
	return Failover{
		Regions: map[model.Placement]string{
			model.PlaceFunction: "east",
			model.PlaceVM:       "west",
		},
		FailureThreshold: 2,
		ProbeEvery:       5,
		Ladder:           ladder,
	}
}

func TestFailoverValidation(t *testing.T) {
	env := testEnv(t)
	cases := []struct {
		name string
		fo   Failover
	}{
		{"no regions", Failover{}},
		{"local placement", Failover{Regions: map[model.Placement]string{model.PlaceLocal: "here"}}},
		{"empty region name", Failover{Regions: map[model.Placement]string{model.PlaceVM: ""}}},
		{"negative threshold", Failover{Regions: map[model.Placement]string{model.PlaceVM: "west"}, FailureThreshold: -1}},
		{"negative probe pace", Failover{Regions: map[model.Placement]string{model.PlaceVM: "west"}, ProbeEvery: -1}},
	}
	for _, c := range cases {
		if _, err := New(env, CloudAll{}, Exact{}, WithFailover(c.fo)); err == nil {
			t.Errorf("%s: New accepted %+v", c.name, c.fo)
		}
	}
	// A region mapped to a placement the environment does not offer is a
	// configuration error, not a silently-untracked region.
	env.VM = nil
	if _, err := New(env, CloudAll{}, Exact{}, WithFailover(Failover{
		Regions: map[model.Placement]string{model.PlaceVM: "west"},
	})); err == nil {
		t.Error("New accepted a region homed on an absent substrate")
	}
}

// TestFailoverValidationErrorIsStable gives Regions two bad entries: the
// error must name the lower placement on every run, whatever order the
// map iterates in.
func TestFailoverValidationErrorIsStable(t *testing.T) {
	fo := Failover{Regions: map[model.Placement]string{
		model.PlaceEdge:     "",
		model.PlaceFunction: "",
		model.PlaceVM:       "",
	}}
	want := fmt.Sprintf("sched: empty region name for placement %v", model.PlaceEdge)
	for i := 0; i < 50; i++ {
		err := fo.Validate()
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %q", i, err, want)
		}
	}
}

// TestFailoverRehomesOnOutage pins the tentpole behaviour: with the east
// region dark, tasks re-home to west (paying the state-transfer cost),
// nothing is lost, and the health ledger records the open incident.
func TestFailoverRehomesOnOutage(t *testing.T) {
	env := twoRegionEnv(t, fault.Window{Start: 0, Duration: 1e4})
	s, err := New(env, CloudAll{}, Exact{},
		WithRetries(RetryPolicy{MaxAttempts: 5, Backoff: 1}),
		WithFailover(twoRegionFailover(nil)))
	if err != nil {
		t.Fatal(err)
	}
	failed, completed := 0, 0
	onSettle(s, func(o model.Outcome) {
		if o.Failed {
			failed++
		} else {
			completed++
		}
	})
	// Staggered arrivals: the first failure and the threshold-crossing one
	// land at different instants, so detection has a measurable lag.
	for i := 1; i <= 8; i++ {
		task := heavyTask(model.TaskID(i))
		task.Cycles = 1e9
		env.Eng.At(sim.Time(3*(i-1)), func() { s.Submit(task) })
	}
	// Stop mid-outage: the canary probe loop keeps the queue busy until
	// the window clears, and this test wants the incident still open.
	env.Eng.RunUntil(100)
	if failed != 0 {
		t.Fatalf("%d tasks failed despite a healthy alternative region", failed)
	}
	if completed != 8 {
		t.Fatalf("%d tasks completed by t=100, want 8", completed)
	}
	fs := s.FailoverStats()
	if fs.ReHomed == 0 {
		t.Fatal("no tasks re-homed off the dark region")
	}
	if fs.StateTransferUSD <= 0 {
		t.Fatal("re-homing paid no state-transfer cost")
	}
	if fs.Probes == 0 {
		t.Fatal("no canary probes sent to the down region")
	}
	healthy, total := s.HealthyRegions()
	if total != 2 || healthy != 1 {
		t.Fatalf("healthy/total = %d/%d, want 1/2", healthy, total)
	}
	for _, rs := range s.RegionSnapshots() {
		switch rs.Name {
		case "east":
			if !rs.Down || rs.Downs != 1 {
				t.Errorf("east snapshot %+v, want one open incident", rs)
			}
			if rs.MTTDSeconds <= 0 {
				t.Errorf("east MTTD %g, want > 0", rs.MTTDSeconds)
			}
			if rs.DownSeconds <= 0 {
				t.Errorf("east down seconds %g, want > 0", rs.DownSeconds)
			}
		case "west":
			if rs.Down || rs.Downs != 0 {
				t.Errorf("west snapshot %+v, want healthy", rs)
			}
		}
	}
	if s.DegradedSeconds() <= 0 {
		t.Error("no degraded time accrued during an open incident")
	}
}

// TestLadderShedsAndRecovers walks the ladder: during the outage,
// low-priority work parks (shed) while normal work re-homes; when the
// canary probe discovers the recovery, parked work drains and completes,
// and the ledger closes the incident with a plausible MTTR.
func TestLadderShedsAndRecovers(t *testing.T) {
	env := twoRegionEnv(t, fault.Window{Start: 0, Duration: 60})
	s, err := New(env, CloudAll{}, Exact{},
		WithRetries(RetryPolicy{MaxAttempts: 5, Backoff: 1}),
		WithFailover(twoRegionFailover(&Ladder{ShedLowAfter: 0, LocalizeAfter: 30, QueueAfter: 50})))
	if err != nil {
		t.Fatal(err)
	}
	done := map[model.TaskID]bool{}
	onSettle(s, func(o model.Outcome) {
		if o.Task != nil && !o.Failed {
			done[o.Task.ID] = true
		}
	})
	for i := 1; i <= 6; i++ {
		task := heavyTask(model.TaskID(i))
		task.Cycles = 1e9
		if i%2 == 0 {
			task.Priority = model.PriorityLow
		}
		s.Submit(task)
	}
	env.Eng.Run()
	if n := s.FlushFailover(); n != 0 {
		t.Fatalf("flush localized %d tasks after a discovered recovery", n)
	}
	fs := s.FailoverStats()
	if fs.Shed == 0 {
		t.Fatal("ladder shed no low-priority work during the outage")
	}
	if fs.Lost != 0 {
		t.Fatalf("ladder lost %d tasks", fs.Lost)
	}
	for i := 1; i <= 6; i++ {
		if !done[model.TaskID(i)] {
			t.Errorf("task %d never completed", i)
		}
	}
	for _, rs := range s.RegionSnapshots() {
		if rs.Name != "east" {
			continue
		}
		if rs.Down || rs.Recoveries != 1 {
			t.Fatalf("east snapshot %+v, want one completed recovery", rs)
		}
		// The outage runs [0, 60) and probes pace at 5 s: recovery must be
		// discovered within one probe period of the window clearing.
		if rs.MTTRSeconds <= 0 || rs.MTTRSeconds > 66 {
			t.Fatalf("east MTTR %g outside (0, 66]", rs.MTTRSeconds)
		}
	}
	if s.DegradationMode() != DegradeHealthy {
		t.Errorf("mode %v after recovery, want healthy", s.DegradationMode())
	}
}

// TestFlushLocalizesStrandedWork pins the never-drop contract: when the
// outage outlasts the workload and no alternative region exists, parked
// tasks run locally at drain time instead of being lost.
func TestFlushLocalizesStrandedWork(t *testing.T) {
	env := twoRegionEnv(t, fault.Window{Start: 0, Duration: 1e4})
	// Both remotes homed in east: shed work has nowhere to go.
	fo := Failover{
		Regions: map[model.Placement]string{
			model.PlaceFunction: "east",
			model.PlaceVM:       "east",
		},
		FailureThreshold: 2,
		ProbeEvery:       5,
		Ladder:           &Ladder{ShedLowAfter: 0},
	}
	s, err := New(env, CloudAll{}, Exact{},
		WithRetries(RetryPolicy{MaxAttempts: 5, Backoff: 1}),
		WithFailover(fo))
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	onSettle(s, func(o model.Outcome) {
		if !o.Failed {
			completed++
		}
	})
	for i := 1; i <= 4; i++ {
		task := heavyTask(model.TaskID(i))
		task.Cycles = 1e9
		task.Priority = model.PriorityLow
		s.Submit(task)
	}
	env.Eng.RunUntil(100)
	if s.FailoverQueueLen() == 0 {
		t.Fatal("no work parked during a permanent outage")
	}
	if n := s.FlushFailover(); n == 0 {
		t.Fatal("flush localized nothing")
	}
	env.Eng.RunUntil(200)
	if completed != 4 {
		t.Fatalf("%d tasks completed after flush, want 4", completed)
	}
	if fs := s.FailoverStats(); fs.Lost != 0 {
		t.Fatalf("flush lost %d tasks", fs.Lost)
	}
}

// TestDrainTwiceMidIncidentCountsOnce is the double-settle regression:
// a drain whose targets are still down re-parks every task, and before
// the fix each re-park re-incremented Shed/Queued — so a task parked
// through two mid-incident drains counted three times in the park
// ledger, and the cost identity (one settle, one count per task) broke.
// Two explicit drains mid-incident must leave the counters where the
// first park put them, and every task must still settle exactly once.
func TestDrainTwiceMidIncidentCountsOnce(t *testing.T) {
	env := twoRegionEnv(t, fault.Window{Start: 0, Duration: 1e4})
	// Both remotes homed in east: a drain can never move parked work, it
	// can only re-park it — the worst case for double counting.
	fo := Failover{
		Regions: map[model.Placement]string{
			model.PlaceFunction: "east",
			model.PlaceVM:       "east",
		},
		FailureThreshold: 2,
		ProbeEvery:       5,
		Ladder:           &Ladder{ShedLowAfter: 0},
	}
	s, err := New(env, CloudAll{}, Exact{},
		WithRetries(RetryPolicy{MaxAttempts: 5, Backoff: 1}),
		WithFailover(fo))
	if err != nil {
		t.Fatal(err)
	}
	settled := map[model.TaskID]int{}
	onSettle(s, func(o model.Outcome) {
		if o.Task != nil {
			settled[o.Task.ID]++
		}
	})
	const n = 4
	for i := 1; i <= n; i++ {
		task := heavyTask(model.TaskID(i))
		task.Cycles = 1e9
		task.Priority = model.PriorityLow
		s.Submit(task)
	}
	env.Eng.RunUntil(50)
	if got := s.FailoverQueueLen(); got != n {
		t.Fatalf("%d tasks parked by t=50, want %d", got, n)
	}
	before := s.FailoverStats()

	// Two mid-incident drains — in production a sibling region recovering
	// while east stays dark. Every task re-parks both times.
	env.Eng.At(60, func() { s.fo.drain() })
	env.Eng.At(70, func() { s.fo.drain() })
	env.Eng.RunUntil(80)

	if got := s.FailoverQueueLen(); got != n {
		t.Fatalf("%d tasks parked after two drains, want %d still parked", got, n)
	}
	after := s.FailoverStats()
	if after.Shed != before.Shed || after.Queued != before.Queued {
		t.Fatalf("drain re-parks re-counted: Shed %d→%d, Queued %d→%d",
			before.Shed, after.Shed, before.Queued, after.Queued)
	}
	if after.Lost != 0 || after.Localized != before.Localized {
		t.Fatalf("drains leaked tasks: Lost=%d, Localized %d→%d",
			after.Lost, before.Localized, after.Localized)
	}

	// Flush ends the run: each task is localized once and settles once.
	if got := s.FlushFailover(); got != n {
		t.Fatalf("flush localized %d tasks, want %d", got, n)
	}
	env.Eng.RunUntil(500)
	fs := s.FailoverStats()
	if fs.Localized != before.Localized+n {
		t.Fatalf("Localized = %d after flush, want %d", fs.Localized, before.Localized+n)
	}
	if len(settled) != n {
		t.Fatalf("%d distinct tasks settled, want %d", len(settled), n)
	}
	for id, c := range settled {
		if c != 1 {
			t.Fatalf("task %d settled %d times, want exactly once", id, c)
		}
	}
}

// TestLadderQueueOverflowLoses pins the only loss path the ladder has: a
// full wait queue. Shed tasks past maxWaitQueue are lost.
func TestLadderQueueOverflowLoses(t *testing.T) {
	env := twoRegionEnv(t, fault.Window{Start: 0, Duration: 1e4})
	s, err := New(env, CloudAll{}, Exact{},
		WithRetries(RetryPolicy{MaxAttempts: 5, Backoff: 1}),
		WithFailover(twoRegionFailover(&Ladder{ShedLowAfter: 0})))
	if err != nil {
		t.Fatal(err)
	}
	const n = maxWaitQueue + 4
	for i := 1; i <= n; i++ {
		task := heavyTask(model.TaskID(i))
		task.Cycles = 1e9
		task.Priority = model.PriorityLow
		s.Submit(task)
	}
	env.Eng.RunUntil(100)
	fs := s.FailoverStats()
	if fs.Lost == 0 {
		t.Fatalf("a %d-slot queue absorbed %d shed tasks without loss", maxWaitQueue, n)
	}
	if fs.Shed != maxWaitQueue {
		t.Fatalf("Shed = %d, want the queue bound %d", fs.Shed, maxWaitQueue)
	}
}

// TestLadderRungProgression pins the rung thresholds against the age of
// the oldest open incident.
func TestLadderRungProgression(t *testing.T) {
	env := twoRegionEnv(t, fault.Window{Start: 0, Duration: 1e4})
	s, err := New(env, CloudAll{}, Exact{},
		WithRetries(RetryPolicy{MaxAttempts: 3, Backoff: 1}),
		WithFailover(twoRegionFailover(&Ladder{ShedLowAfter: 5, LocalizeAfter: 30, QueueAfter: 120})))
	if err != nil {
		t.Fatal(err)
	}
	// One task drives detection: two failed attempts mark east down well
	// before t=5, so the checkpoints below land inside each rung.
	task := heavyTask(1)
	task.Cycles = 1e9
	s.Submit(task)
	for _, cp := range []struct {
		at   sim.Time
		want DegradationMode
	}{
		{3, DegradeHealthy}, // detected, but younger than ShedLowAfter
		{10, DegradeShedLow},
		{40, DegradeLocalizeCritical},
		{200, DegradeQueueAndWait},
	} {
		cp := cp
		env.Eng.At(cp.at, func() {
			if got := s.DegradationMode(); got != cp.want {
				t.Errorf("mode %v at t=%g, want %v", got, float64(cp.at), cp.want)
			}
		})
	}
	env.Eng.RunUntil(300)
	for _, rs := range s.RegionSnapshots() {
		if rs.Name == "east" && !rs.Down {
			t.Fatal("east never marked down")
		}
	}
}

// TestOutOfRangePlacementFails dispatches a placement outside the model's
// range: no substrate, breaker or region knows it, so the task must
// settle failed rather than index past a per-placement table, on a plain
// scheduler and on one with every layer that keeps such tables.
func TestOutOfRangePlacementFails(t *testing.T) {
	bad := model.Placement(99)
	if got := bad.String(); got != "placement(99)" {
		t.Fatalf("String = %q", got)
	}
	layered := []Option{
		WithRetries(RetryPolicy{MaxAttempts: 3, Backoff: 1}),
		WithResilience(Resilience{
			AttemptTimeout: 30, HedgeDelay: 5,
			Breaker: &BreakerConfig{FailureThreshold: 1, OpenFor: 10},
		}),
		WithFailover(twoRegionFailover(&Ladder{})),
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{{"plain", nil}, {"resilience+failover", layered}} {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv(t)
			s, err := New(env, LocalOnly{}, Exact{}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var settled []model.Outcome
			s.DispatchThen(heavyTask(1), bad, func(o model.Outcome) { settled = append(settled, o) })
			env.Eng.Run()
			if len(settled) != 1 || !settled[0].Failed {
				t.Fatalf("settled %+v, want one failed outcome", settled)
			}
			if st := s.Stats(); st.Failed != 1 || st.Completed != 0 {
				t.Fatalf("stats failed=%d completed=%d, want 1 and 0", st.Failed, st.Completed)
			}
		})
	}
}
