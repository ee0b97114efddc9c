//go:build taskpoison

package dag

import (
	"math"

	"offload/internal/model"
)

// recycle, in a taskpoison build, poisons a settled job's node tasks,
// outcomes and critical path and never reuses the record, so a read of
// Result.NodeOutcomes, CritPath or CritS after OnJobDone returns shows
// up in the results.
func (o *Orchestrator) recycle(st *jobState) {
	nan := math.NaN()
	for i := range st.critPath {
		st.critPath[i], st.critS[i] = -1, nan
	}
	for i := range st.tasks {
		st.tasks[i] = model.Task{ID: model.PoisonedTaskID, App: "released", Cycles: nan,
			InputBytes: -1, OutputBytes: -1, MemoryBytes: -1}
	}
	for i := range st.outcomes {
		st.outcomes[i] = model.Outcome{Task: &st.tasks[i], Started: -1, Finished: -1,
			CostUSD: nan, EnergyMilliJ: nan, Failed: true}
	}
}
