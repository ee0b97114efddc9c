package sched

import (
	"testing"

	"offload/internal/model"
	"offload/internal/rng"
)

// TestPolicyNilBackendDegradation: every static policy must degrade to
// local execution when its target substrate is absent, rather than
// emitting a placement the scheduler cannot dispatch.
func TestPolicyNilBackendDegradation(t *testing.T) {
	full := testEnv(t)
	bare := &Env{Eng: full.Eng, Device: full.Device}
	task := heavyTask(1)

	cases := []struct {
		name   string
		policy Policy
		env    *Env
		want   model.Placement
	}{
		{"edge-all without edge", EdgeAll{}, bare, model.PlaceLocal},
		{"cloud-all without functions", CloudAll{}, bare, model.PlaceLocal},
		{"vm-all without vm", VMAll{}, bare, model.PlaceLocal},
		{"threshold without functions", &Threshold{Cycles: 0}, bare, model.PlaceLocal},
		{"edge-all with edge", EdgeAll{}, full, model.PlaceEdge},
		{"cloud-all with functions", CloudAll{}, full, model.PlaceFunction},
		{"vm-all with vm", VMAll{}, full, model.PlaceVM},
		{"local-only ignores backends", LocalOnly{}, full, model.PlaceLocal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.policy.Decide(task, tc.env, Exact{}); got != tc.want {
				t.Errorf("Decide = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestThresholdCutoff pins the comparison direction: the threshold is
// exclusive (strictly greater offloads), so a task predicted exactly at
// the cutoff stays local. The policy trusts the predictor, not the task's
// true demand.
func TestThresholdCutoff(t *testing.T) {
	env := testEnv(t)
	const cutoff = 1e10

	cases := []struct {
		name      string
		predicted float64
		want      model.Placement
	}{
		{"below cutoff", cutoff - 1, model.PlaceLocal},
		{"exactly at cutoff", cutoff, model.PlaceLocal},
		{"just above cutoff", cutoff + 1, model.PlaceFunction},
	}
	p := &Threshold{Cycles: cutoff}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			task := heavyTask(1)
			task.Cycles = tc.predicted
			if got := p.Decide(task, env, Exact{}); got != tc.want {
				t.Errorf("Decide(%.0f cycles) = %v, want %v", tc.predicted, got, tc.want)
			}
		})
	}

	t.Run("zero threshold offloads everything", func(t *testing.T) {
		task := heavyTask(2)
		task.Cycles = 1
		if got := (&Threshold{}).Decide(task, env, Exact{}); got != model.PlaceFunction {
			t.Errorf("Decide = %v, want %v", got, model.PlaceFunction)
		}
	})
}

// TestDeadlineAwareInfeasibleFallsBackToFastest: when no placement can
// meet the (derated) deadline, the policy must still return the fastest
// estimate rather than give up — missing a deadline by little beats
// missing it by a lot.
func TestDeadlineAwareInfeasibleFallsBackToFastest(t *testing.T) {
	full := testEnv(t)
	// Device-plus-VM environment: the 3 GHz VM beats the 1 GHz device on a
	// compute-heavy task even after WAN transfers, so "fastest" is the VM.
	env := &Env{
		Eng:       full.Eng,
		Device:    full.Device,
		VM:        full.VM,
		CloudPath: full.CloudPath,
	}
	task := heavyTask(1)
	task.Deadline = 0.001 // infeasible everywhere

	p := NewDeadlineAware()
	if got := p.Decide(task, env, Exact{}); got != model.PlaceVM {
		t.Errorf("infeasible deadline: Decide = %v, want fastest (%v)", got, model.PlaceVM)
	}

	// Sanity: with the deadline relaxed the same environment prefers the
	// cheaper device, proving the fallback path (not cost scoring) chose
	// the VM above.
	task.Deadline = 0
	if got := p.Decide(task, env, Exact{}); got == model.PlaceUnknown {
		t.Errorf("no-deadline Decide = %v, want a concrete placement", got)
	}
}

// TestDeadlineAwareNoDeadlinePureCost: without a deadline every placement
// is feasible and the policy minimises money+energy; for a tiny task the
// transfers outweigh any speedup, so it stays local.
func TestDeadlineAwareNoDeadlinePureCost(t *testing.T) {
	env := testEnv(t)
	task := &model.Task{
		ID: 1, App: "tiny",
		InputBytes: 64 * model.MB, OutputBytes: 64 * model.MB,
		Cycles: 1e6, MemoryBytes: 64 * model.MB,
	}
	if got := NewDeadlineAware().Decide(task, env, Exact{}); got != model.PlaceLocal {
		t.Errorf("tiny task with huge transfers: Decide = %v, want %v", got, model.PlaceLocal)
	}
}

// TestRandomCoversAvailable: the random baseline only emits placements
// the environment can actually serve, across both full and bare envs.
func TestRandomCoversAvailable(t *testing.T) {
	for _, tc := range []struct {
		name string
		bare bool
		want int
	}{
		{"full env", false, 4},
		{"device only", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv(t)
			if tc.bare {
				env = &Env{Eng: env.Eng, Device: env.Device}
			}
			avail := make(map[model.Placement]bool)
			for _, p := range env.Available() {
				avail[p] = true
			}
			r := &Random{Src: rng.New(7)}
			seen := make(map[model.Placement]bool)
			for i := 0; i < 200; i++ {
				got := r.Decide(heavyTask(model.TaskID(i)), env, Exact{})
				if !avail[got] {
					t.Fatalf("Decide = %v, not in Available()", got)
				}
				seen[got] = true
			}
			if len(seen) != tc.want {
				t.Errorf("saw %d distinct placements in 200 draws, want %d", len(seen), tc.want)
			}
		})
	}
}

// TestDeadlineAwareHotPathAllocatesNothing pins the per-decision path of
// the deadline-aware policy: every Decide sizes a function and fills the
// estimate table, so neither may touch the heap.
func TestDeadlineAwareHotPathAllocatesNothing(t *testing.T) {
	env := testEnv(t)
	env.Functions.ArrivalRateHint = 0.05
	task := heavyTask(1)
	d := NewDeadlineAware()
	// Building a scheduler fixes the environment's placement list, as it
	// is whenever a policy decides.
	if _, err := New(env, d, nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"FunctionPool.EstimateFor", func() { _, _ = env.Functions.EstimateFor(task, task.Cycles) }},
		{"Env.Estimate", func() {
			for _, p := range env.Available() {
				_ = env.Estimate(p, task)
			}
		}},
		{"DeadlineAware.Decide", func() { _ = d.Decide(task, env, Exact{}) }},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(100, tc.fn); got != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, got)
		}
	}
}
