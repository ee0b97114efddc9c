package trace

import (
	"bytes"
	"fmt"
	"testing"

	"offload/internal/model"
)

// driveRetryHedge replays a hand-built scheduler history against a
// recorder: task 1 retries once (transient fault, backoff gap) and then
// wins; task 2 races a hedge that loses; a breaker blips on the function
// backend along the way.
func driveRetryHedge(r *SpanRecorder) {
	t1 := &model.Task{ID: 1}
	t2 := &model.Task{ID: 2}

	// Task 1, attempt 1: fails transiently at t=4 after 1s uplink + 2s exec.
	a1 := r.AttemptStart(t1, model.PlaceFunction, false, 1)
	r.AttemptEnd(a1, model.Outcome{
		Task: t1, Placement: model.PlaceFunction,
		UplinkTime: 1,
		Exec:       model.ExecReport{Start: 2, End: 4, Err: fmt.Errorf("boom: %w", model.ErrTransient)},
		CostUSD:    0.01, Failed: true,
	}, StatusRetry, 4)

	r.BreakerTransition(model.PlaceFunction, "closed", "open", 4)

	// Task 1, attempt 2 after 2s backoff: wins at t=10.
	b1 := r.AttemptStart(t1, model.PlaceFunction, false, 6)
	r.AttemptEnd(b1, model.Outcome{
		Task: t1, Placement: model.PlaceFunction,
		UplinkTime: 1, DownlinkTime: 1,
		Exec:    model.ExecReport{Start: 7, End: 9, QueueWait: 0.5, ColdStart: 0.5},
		CostUSD: 0.02,
	}, StatusWin, 10)
	r.TaskDone(model.Outcome{
		Task: t1, Placement: model.PlaceFunction,
		Started: 1, Finished: 10, CostUSD: 0.03, Attempts: 2,
	}, 10)

	// Task 2: primary straggles, hedge fires at t=15 and the primary still
	// wins at t=20; the hedge drains at t=22 as a loser.
	p2 := r.AttemptStart(t2, model.PlaceFunction, false, 12)
	h2 := r.AttemptStart(t2, model.PlaceFunction, true, 15)
	r.AttemptEnd(p2, model.Outcome{
		Task: t2, Placement: model.PlaceFunction,
		UplinkTime: 1, DownlinkTime: 1,
		Exec:    model.ExecReport{Start: 13, End: 19},
		CostUSD: 0.04,
	}, StatusWin, 20)
	r.AttemptEnd(h2, model.Outcome{
		Task: t2, Placement: model.PlaceFunction,
		UplinkTime: 1,
		Exec:       model.ExecReport{Start: 16, End: 21},
		CostUSD:    0.05,
	}, StatusLose, 22)
	r.TaskDone(model.Outcome{
		Task: t2, Placement: model.PlaceFunction,
		Started: 12, Finished: 20, CostUSD: 0.09, Attempts: 2,
	}, 20)
}

func spansOf(set *SpanSet, name string) []Span {
	var out []Span
	for _, sp := range set.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

func TestSpanRecorderTree(t *testing.T) {
	r := NewSpanRecorder()
	r.SetMeta("unit", "cloud-all")
	driveRetryHedge(r)
	set := r.Set()
	if set.Run != "unit" || set.Policy != "cloud-all" {
		t.Fatalf("meta lost: %+v", set)
	}

	roots := spansOf(set, SpanTask)
	if len(roots) != 2 {
		t.Fatalf("%d roots, want 2", len(roots))
	}
	attempts := spansOf(set, SpanAttempt)
	if len(attempts) != 4 {
		t.Fatalf("%d attempts, want 4", len(attempts))
	}
	byTrace := map[uint64]Span{}
	for _, rt := range roots {
		byTrace[rt.Trace] = rt
		if rt.Status != StatusOK {
			t.Errorf("root %d status %q", rt.Trace, rt.Status)
		}
	}
	for _, a := range attempts {
		if a.Parent != byTrace[a.Trace].ID {
			t.Errorf("attempt %d parented to %d, want root %d", a.ID, a.Parent, byTrace[a.Trace].ID)
		}
	}

	// Attempt statuses and fault classification.
	if a := attempts[0]; a.Status != StatusRetry || a.Fault != FaultTransient || a.Attempt != 1 {
		t.Errorf("first attempt wrong: %+v", a)
	}
	if a := attempts[1]; a.Status != StatusWin || a.Attempt != 2 {
		t.Errorf("second attempt wrong: %+v", a)
	}
	hedges := 0
	for _, a := range attempts {
		if a.Hedge {
			hedges++
			if a.Status != StatusLose {
				t.Errorf("hedge status %q, want lose", a.Status)
			}
		}
	}
	if hedges != 1 {
		t.Fatalf("%d hedge attempts, want 1", hedges)
	}

	// Task 1's backoff gap: [4, 6] between the failed attempt and the retry.
	backoffs := spansOf(set, PhaseBackoff)
	foundGap := false
	for _, g := range backoffs {
		if g.Trace == 1 && g.Start == 4 && g.End == 6 {
			foundGap = true
		}
	}
	if !foundGap {
		t.Errorf("no [4,6] backoff gap for task 1; backoffs: %+v", backoffs)
	}

	// The winning attempt of task 1 decomposes into all five phases.
	want := map[string][2]float64{
		PhaseUplink:    {6, 7},
		PhaseQueue:     {7, 7.5},
		PhaseColdStart: {7.5, 8},
		PhaseExec:      {8, 9},
		PhaseDownlink:  {9, 10},
	}
	winID := attempts[1].ID
	got := map[string][2]float64{}
	for _, sp := range set.Spans {
		if sp.Parent == winID {
			got[sp.Name] = [2]float64{sp.Start, sp.End}
		}
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("phase %s = %v, want %v", name, got[name], w)
		}
	}

	// Breaker events are run-scoped zero-width markers.
	brk := spansOf(set, EventBreaker)
	if len(brk) != 1 || brk[0].Status != "closed>open" || brk[0].DurationS() != 0 {
		t.Errorf("breaker events wrong: %+v", brk)
	}

	// Per-trace bookkeeping must be released once a task settles.
	if len(r.byID) != 0 || len(r.traces) != 0 {
		t.Errorf("recorder retained bookkeeping: %d byID, %d traces",
			len(r.byID), len(r.traces))
	}
}

func TestSpanRecorderTimeoutCost(t *testing.T) {
	r := NewSpanRecorder()
	task := &model.Task{ID: 7}
	a := r.AttemptStart(task, model.PlaceFunction, false, 0)
	r.AttemptEnd(a, model.Outcome{Task: task, Placement: model.PlaceFunction, Failed: true},
		StatusTimeout, 30)
	// The zombie completes later and bills money onto the closed attempt.
	r.AttemptCost(a, 0.5)
	r.TaskDone(model.Outcome{Task: task, Placement: model.PlaceLocal,
		Started: 0, Finished: 40, CostUSD: 0.5, Attempts: 1}, 40)

	set := r.Set()
	attempts := spansOf(set, SpanAttempt)
	if len(attempts) != 1 {
		t.Fatalf("%d attempts, want 1", len(attempts))
	}
	if attempts[0].Status != StatusTimeout || attempts[0].CostUSD != 0.5 {
		t.Fatalf("timeout attempt wrong: %+v", attempts[0])
	}
	// Timeout outcomes are synthetic: no phase decomposition.
	for _, name := range []string{PhaseUplink, PhaseQueue, PhaseExec} {
		if n := len(spansOf(set, name)); n != 0 {
			t.Errorf("timeout attempt emitted %d %s phases", n, name)
		}
	}
	w := ComputeWaste(set)
	if w.Timeouts != 1 || w.LostUSD != 0.5 || w.AttemptUSD != w.TaskUSD {
		t.Fatalf("waste wrong: %+v", w)
	}
}

func TestCriticalPathRetryAndHedge(t *testing.T) {
	r := NewSpanRecorder()
	driveRetryHedge(r)
	paths := CriticalPaths(r.Set())
	if len(paths) != 2 {
		t.Fatalf("%d paths, want 2", len(paths))
	}
	byTrace := map[uint64]TaskPath{}
	for _, p := range paths {
		byTrace[p.Trace] = p
	}

	// Task 1: 9s completion = 3s attempt 1 (uplink 1 + other 1 + exec 1... )
	// — precisely: attempt1 [1,4] (uplink 1, gap 1 as other, exec 2 →
	// clipped), backoff [4,6], attempt2 [6,10] fully decomposed.
	p1 := byTrace[1]
	if p1.Attempts != 2 || p1.Failed {
		t.Fatalf("task 1 path wrong: %+v", p1)
	}
	total := 0.0
	for _, v := range p1.PhaseS {
		total += v
	}
	if total != p1.CompletionS {
		t.Fatalf("task 1 phases sum %g != completion %g (%+v)", total, p1.CompletionS, p1.PhaseS)
	}
	if p1.PhaseS[PhaseBackoff] != 2 {
		t.Errorf("task 1 backoff = %g, want 2", p1.PhaseS[PhaseBackoff])
	}
	if p1.PhaseS[PhaseDownlink] != 1 || p1.PhaseS[PhaseColdStart] != 0.5 {
		t.Errorf("task 1 phases wrong: %+v", p1.PhaseS)
	}

	// Task 2: the primary won; the hedge must not contribute. The primary
	// covers [12,20]: uplink [12,13], exec [13,19], downlink [19,20].
	p2 := byTrace[2]
	if p2.PhaseS[PhaseExec] != 6 || p2.PhaseS[PhaseUplink] != 1 || p2.PhaseS[PhaseDownlink] != 1 {
		t.Errorf("task 2 phases wrong: %+v", p2.PhaseS)
	}
	if p2.PhaseS[PhaseBackoff] != 0 {
		t.Errorf("task 2 charged backoff on a hedged run: %+v", p2.PhaseS)
	}
}

// TestAttributeGuards: zero-record and single-record sets must not divide
// by zero anywhere — shares come back zero, not NaN.
func TestAttributeGuards(t *testing.T) {
	cases := []struct {
		name  string
		spans []Span
		tasks int
	}{
		{"empty", nil, 0},
		{"single zero-duration task", []Span{
			{ID: 1, Trace: 1, Name: SpanTask, Backend: "local", Start: 5, End: 5, Status: StatusOK},
		}, 1},
		{"single failed task", []Span{
			{ID: 1, Trace: 1, Name: SpanTask, Backend: "local", Start: 0, End: 3, Status: StatusFailed},
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			att := Attribute(&SpanSet{Spans: tc.spans})
			for _, g := range att.Groups {
				if g.Tasks != tc.tasks && g.Name == "all" {
					t.Fatalf("group all has %d tasks, want %d", g.Tasks, tc.tasks)
				}
				for phase, ps := range g.Phase {
					for _, v := range []float64{ps.MeanS, ps.ShareMean, ps.ShareP50, ps.ShareP95, ps.ShareP99} {
						if v != v || v < 0 || v > 1e18 {
							t.Fatalf("%s/%s produced %g", g.Name, phase, v)
						}
					}
				}
			}
			// Rendering must not panic on degenerate input either.
			_ = att.Table().String()
			_ = ComputeWaste(&SpanSet{Spans: tc.spans}).Table().String()
		})
	}
}

// TestSummarizeGuards: the legacy record summary must handle empty and
// single-record inputs without dividing by zero, and must aggregate the
// new attempts field.
func TestSummarizeGuards(t *testing.T) {
	cases := []struct {
		name         string
		records      []Record
		tasks        int
		missRate     float64
		meanAttempts float64
		retryRate    float64
	}{
		{"empty", nil, 0, 0, 0, 0},
		{"single completed", []Record{
			{TaskID: 1, Placement: "local", Submitted: 0, Finished: 2},
		}, 1, 0, 1, 0},
		{"single failed", []Record{
			{TaskID: 1, Placement: "function", Failed: true, Attempts: 3},
		}, 1, 0, 3, 1},
		{"all missed", []Record{
			{TaskID: 1, Placement: "edge", Finished: 2, Missed: true, Attempts: 2},
			{TaskID: 2, Placement: "edge", Finished: 4, Missed: true},
		}, 2, 1, 1.5, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Summarize(tc.records)
			if s.Tasks != tc.tasks {
				t.Fatalf("tasks = %d, want %d", s.Tasks, tc.tasks)
			}
			if got := s.MissRate(); got != tc.missRate {
				t.Errorf("miss rate = %g, want %g", got, tc.missRate)
			}
			if s.MeanAttempts != tc.meanAttempts {
				t.Errorf("mean attempts = %g, want %g", s.MeanAttempts, tc.meanAttempts)
			}
			if s.RetryRate != tc.retryRate {
				t.Errorf("retry rate = %g, want %g", s.RetryRate, tc.retryRate)
			}
		})
	}
}

// TestRecordAttemptsRoundTrip: the attempts field must survive the
// outcome → record → JSONL → record path (the bug this field fixes was
// its silent loss at the first hop).
func TestRecordAttemptsRoundTrip(t *testing.T) {
	o := model.Outcome{
		Task:      &model.Task{ID: 9, App: "ml-batch"},
		Placement: model.PlaceFunction,
		Started:   1, Finished: 5,
		CostUSD: 0.01, Attempts: 3,
	}
	r := FromOutcome(o)
	if r.Attempts != 3 {
		t.Fatalf("FromOutcome dropped attempts: %+v", r)
	}
	rec := &Recorder{}
	rec.Add(r)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != r {
		t.Fatalf("round trip mutated the record:\nin  %+v\nout %+v", r, back[0])
	}
}
