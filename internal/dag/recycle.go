//go:build !taskpoison

package dag

// recycle puts a settled job's record back on the free list, keeping its
// arrays and its bound then closure.
func (o *Orchestrator) recycle(st *jobState) {
	*st = jobState{remaining: st.remaining, state: st.state, tasks: st.tasks,
		outcomes: st.outcomes, then: st.then, critPath: st.critPath, critS: st.critS}
	o.free.Put(st)
}
