//go:build !taskpoison

package dag_test

import (
	"fmt"
	"testing"

	"offload/internal/dag"
	"offload/internal/model"
)

// chain builds n0 → n1 → … → n(k-1).
func chain(t *testing.T, k int) *dag.Job {
	t.Helper()
	j := dag.New("chain", 0)
	for i := 0; i < k; i++ {
		j.MustAddNode(dag.Node{Name: fmt.Sprintf("n%d", i), Cycles: 1e9})
		if i > 0 {
			if err := j.Connect(fmt.Sprintf("n%d", i-1), fmt.Sprintf("n%d", i), 1<<10); err != nil {
				t.Fatal(err)
			}
		}
	}
	return j
}

// TestRecycledJobStateStartsClean runs a six-node chain, then a diamond
// whose node b fails, on one orchestrator. The diamond reuses the chain's
// record, and its smaller arrays must carry nothing over: node d, done in
// the chain, must be skipped with a zero outcome, and the job must
// settle.
func TestRecycledJobStateStartsClean(t *testing.T) {
	eng, env := localEnv()
	o := newOrch(t, env, edgeFor{component: "b"}, nil)
	var results []dag.Result
	var firstOutcome *model.Outcome
	o.OnJobDone(func(r dag.Result) {
		if firstOutcome == nil {
			firstOutcome = &r.NodeOutcomes[0]
		} else if &r.NodeOutcomes[0] != firstOutcome {
			t.Error("the second job did not reuse the first job's record")
		}
		results = append(results, r)
		if len(results) == 2 {
			if len(r.NodeOutcomes) != 4 {
				t.Fatalf("diamond has %d outcomes, want 4", len(r.NodeOutcomes))
			}
			d, _ := r.Job.Lookup("d")
			if out := r.NodeOutcomes[d]; out != (model.Outcome{}) {
				t.Errorf("skipped node d has an outcome: %+v", out)
			}
			b, _ := r.Job.Lookup("b")
			if !r.NodeOutcomes[b].Failed {
				t.Error("node b did not fail")
			}
		}
	})
	if err := o.Submit(chain(t, 6)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := o.Submit(diamond(t)); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	st := o.Stats()
	if len(results) != 2 || st.Jobs != 2 || o.InFlight() != 0 {
		t.Fatalf("%d results, %d jobs settled, %d in flight; want 2, 2, 0", len(results), st.Jobs, o.InFlight())
	}
	if st.NodesCompleted != 8 || st.NodesFailed != 1 || st.NodesSkipped != 1 {
		t.Errorf("nodes completed/failed/skipped = %d/%d/%d, want 8/1/1",
			st.NodesCompleted, st.NodesFailed, st.NodesSkipped)
	}
	if !results[1].Failed || results[0].Failed {
		t.Errorf("job failures = %v, %v; want false, true", results[0].Failed, results[1].Failed)
	}
}
