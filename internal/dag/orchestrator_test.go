package dag_test

import (
	"math"
	"slices"
	"testing"

	"offload/internal/dag"
	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/sim"
)

// localEnv is the smallest environment a job can run in: one device.
func localEnv() (*sim.Engine, *sched.Env) {
	eng := sim.NewEngine()
	env := &sched.Env{Eng: eng, Device: device.New(eng, device.Smartphone())}
	return eng, env
}

// edgeEnv adds an edge site behind a LAN path so rank placement has a
// real offload choice.
func edgeEnv() (*sim.Engine, *sched.Env) {
	eng := sim.NewEngine()
	src := rng.New(7)
	env := &sched.Env{
		Eng:      eng,
		Device:   device.New(eng, device.Smartphone()),
		Edge:     edge.New(eng, edge.SmallSite()),
		EdgePath: network.New(eng, src.Split(), network.LANEdge()),
	}
	return eng, env
}

func newOrch(t *testing.T, env *sched.Env, policy sched.Policy, placer dag.Placer) *dag.Orchestrator {
	t.Helper()
	s, err := sched.New(env, policy, sched.Exact{})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	return dag.NewOrchestrator(s, placer)
}

// diamond builds a → {b, c} → d with enough work to be observable.
func diamond(t *testing.T) *dag.Job {
	t.Helper()
	j := dag.New("diamond", 0)
	for _, n := range []string{"a", "b", "c", "d"} {
		j.MustAddNode(dag.Node{Name: n, Cycles: 2e9, InputBytes: 64 << 10, OutputBytes: 64 << 10})
	}
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		if err := j.Connect(e[0], e[1], 128<<10); err != nil {
			t.Fatalf("connect: %v", err)
		}
	}
	return j
}

// keep copies each settled job's result into res, NodeOutcomes and the
// critical path included: the orchestrator reuses those slices once the
// callback returns.
func keep(res *dag.Result) func(dag.Result) {
	return func(r dag.Result) {
		*res = r
		res.NodeOutcomes = slices.Clone(r.NodeOutcomes)
		res.CritPath, res.CritS = slices.Clone(r.CritPath), slices.Clone(r.CritS)
	}
}

func TestOrchestratorPrecedence(t *testing.T) {
	eng, env := localEnv()
	o := newOrch(t, env, sched.LocalOnly{}, nil)
	var res dag.Result
	o.OnJobDone(keep(&res))
	job := diamond(t)
	if err := o.Submit(job); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	eng.Run()

	if o.InFlight() != 0 {
		t.Fatalf("jobs still in flight: %d", o.InFlight())
	}
	if res.Job == nil || res.Failed {
		t.Fatalf("job did not succeed: %+v", res)
	}
	// Every node must start at or after all its predecessors finished.
	finished := make(map[dag.NodeID]sim.Time)
	for id := range res.NodeOutcomes {
		finished[dag.NodeID(id)] = res.NodeOutcomes[id].Finished
	}
	for _, id := range job.TopoOrder() {
		for _, p := range job.Preds(id) {
			if res.NodeOutcomes[id].Started < finished[p] {
				t.Errorf("node %d started %.6f before pred %d finished %.6f",
					id, res.NodeOutcomes[id].Started, p, finished[p])
			}
		}
	}

	// The critical-path decomposition partitions the makespan exactly.
	var critSum float64
	for _, s := range res.CritS {
		if s < 0 {
			t.Errorf("negative critical-path contribution %g", s)
		}
		critSum += s
	}
	if drift := math.Abs(critSum - res.MakespanS); drift > 1e-9 {
		t.Errorf("critical path sums to %.12f, makespan %.12f (drift %g)",
			critSum, res.MakespanS, drift)
	}
	if res.CritTotalS != critSum {
		t.Errorf("CritTotalS %.12f != sum of CritS %.12f", res.CritTotalS, critSum)
	}
	if st := o.Stats(); st.MaxDriftS() > 1e-9 {
		t.Errorf("stats drift %g > 1e-9", st.MaxDriftS())
	}
	// Serial local execution: slack on the critical path is zero, and the
	// diamond's off-path branch gets strictly positive slack only if the
	// branches overlapped; with one task running at a time on a multi-core
	// device both branches run concurrently, so at least one node has
	// slack. Just require the mean to be finite and non-negative.
	if res.MeanSlackS < 0 || math.IsNaN(res.MeanSlackS) {
		t.Errorf("bad mean slack %g", res.MeanSlackS)
	}
}

// edgeFor fails one component by routing it to a substrate the
// environment lacks.
type edgeFor struct{ component string }

func (edgeFor) Name() string { return "test-edge-for" }

func (p edgeFor) Decide(task *model.Task, _ *sched.Env, _ sched.Predictor) model.Placement {
	if task.Component == p.component {
		return model.PlaceEdge // env has no edge: terminal failure
	}
	return model.PlaceLocal
}

func TestOrchestratorFailureSkipsDescendants(t *testing.T) {
	eng, env := localEnv()
	o := newOrch(t, env, edgeFor{component: "b"}, nil)
	var res dag.Result
	o.OnJobDone(keep(&res))
	job := diamond(t)
	if err := o.Submit(job); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	eng.Run()

	if !res.Failed {
		t.Fatal("job with a failed node reported success")
	}
	st := o.Stats()
	if st.NodesFailed != 1 {
		t.Errorf("NodesFailed = %d, want 1", st.NodesFailed)
	}
	// d depends on b and must be skipped, never dispatched; a and c ran.
	if st.NodesSkipped != 1 {
		t.Errorf("NodesSkipped = %d, want 1", st.NodesSkipped)
	}
	if st.NodesCompleted != 2 {
		t.Errorf("NodesCompleted = %d, want 2", st.NodesCompleted)
	}
	if st.Failed != 1 || st.Jobs != 1 {
		t.Errorf("Jobs/Failed = %d/%d, want 1/1", st.Jobs, st.Failed)
	}
	d, _ := job.Lookup("d")
	if out := res.NodeOutcomes[d]; out.Task != nil {
		t.Errorf("skipped node d has an outcome: %+v", out)
	}
}

func TestRankPlacementDeterministic(t *testing.T) {
	_, env := edgeEnv()
	s, err := sched.New(env, sched.LocalOnly{}, sched.Exact{})
	if err != nil {
		t.Fatal(err)
	}
	job := diamond(t)
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
	first := dag.Rank{}.Place(job, s.Env(), s.Predictor())
	second := dag.Rank{}.Place(job, s.Env(), s.Predictor())
	if len(first) != job.Len() || len(second) != job.Len() {
		t.Fatalf("placement lengths %d/%d, want %d", len(first), len(second), job.Len())
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("rank placement not deterministic: %v vs %v", first, second)
		}
	}
}

func TestOrchestratorRankRunsToCompletion(t *testing.T) {
	eng, env := edgeEnv()
	o := newOrch(t, env, sched.LocalOnly{}, dag.Rank{})
	var res dag.Result
	o.OnJobDone(keep(&res))
	job := diamond(t)
	if err := o.Submit(job); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	eng.Run()
	if res.Job == nil || res.Failed {
		t.Fatalf("rank-placed job did not succeed: %+v", res)
	}
	if res.MakespanS <= 0 {
		t.Errorf("makespan %g, want > 0", res.MakespanS)
	}
	for id, out := range res.NodeOutcomes {
		if out.Task == nil {
			t.Fatalf("node %d has no outcome", id)
		}
		// Dispatch bypasses Submit, so the orchestrator must stamp the
		// release time itself; a zero Started on a non-root node would
		// corrupt completion-time stats.
		for _, p := range job.Preds(dag.NodeID(id)) {
			if out.Started < res.NodeOutcomes[p].Finished {
				t.Errorf("rank node %d started before pred %d finished", id, p)
			}
		}
	}
}

func TestSubmitRejectsOversizedAndInvalid(t *testing.T) {
	_, env := localEnv()
	o := newOrch(t, env, sched.LocalOnly{}, nil)
	bad := dag.New("cyclic", 0)
	a := bad.MustAddNode(dag.Node{Name: "a", Cycles: 1})
	b := bad.MustAddNode(dag.Node{Name: "b", Cycles: 1})
	bad.MustAddEdge(dag.Edge{From: a, To: b})
	bad.MustAddEdge(dag.Edge{From: b, To: a})
	if err := o.Submit(bad); err == nil {
		t.Error("cyclic job accepted")
	}
	if err := o.Submit(dag.New("empty", 0)); err == nil {
		t.Error("empty job accepted")
	}
}
