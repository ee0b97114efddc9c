//go:build !taskpoison

package sched

// The zero-allocation checks of the remote-attempt path. A taskpoison
// build never reuses a released remote-attempt record, so they hold only
// in a normal build.

import "testing"

// TestRemoteAttemptSteadyStateAllocatesNothing holds a warm scheduler's
// uplink → execute → downlink attempt to zero allocations.
func TestRemoteAttemptSteadyStateAllocatesNothing(t *testing.T) {
	cycle := remoteAttemptCycle(t)
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("remote attempt allocates %v times, want 0", n)
	}
}

// TestResilientCyclesAllocateNothing holds a warm resilient scheduler at
// zero allocations per task for every way a task can go through the
// attempt machinery: the task and attempt records, and their timer and
// outcome callbacks, come back off the scheduler's and the engine's free
// lists.
func TestResilientCyclesAllocateNothing(t *testing.T) {
	for _, tc := range resilientCycles {
		t.Run(tc.name, func(t *testing.T) {
			r := newResilientRig(t, tc.res, tc.retries, tc.script...)
			r.cycle()
			st := r.s.Stats()
			if st.Completed != 1 || st.Hedges != tc.hedges || st.HedgeWins != tc.hedgeWins ||
				st.Timeouts != tc.timeouts || st.Retries != tc.retried || r.b.calls != len(tc.script) {
				t.Fatalf("one cycle: completed %d hedges %d wins %d timeouts %d retries %d calls %d, want 1 %d %d %d %d %d",
					st.Completed, st.Hedges, st.HedgeWins, st.Timeouts, st.Retries, r.b.calls,
					tc.hedges, tc.hedgeWins, tc.timeouts, tc.retried, len(tc.script))
			}
			if n := testing.AllocsPerRun(100, r.cycle); n != 0 {
				t.Fatalf("a warm %s cycle allocates %v times, want 0", tc.name, n)
			}
			if r.s.InFlight() != 0 {
				t.Fatalf("%d tasks left in flight", r.s.InFlight())
			}
		})
	}
}
