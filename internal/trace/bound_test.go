package trace

import (
	"testing"

	"offload/internal/model"
	"offload/internal/sim"
)

var recordScratch = &model.Task{App: "bench"}

// recordTask replays one clean task lifecycle through the recorder. The
// task fixture is shared scratch so the replay itself allocates nothing.
func recordTask(r *SpanRecorder, i int) {
	task := recordScratch
	task.ID = model.TaskID(i + 1)
	at := sim.Time(float64(i))
	id := r.AttemptStart(task, model.PlaceFunction, false, at)
	o := benchOutcome(task, at)
	r.AttemptEnd(id, o, StatusWin, at+2)
	r.TaskDone(o, at+2)
}

// TestSpanRecordSteadyStateAlloc pins the recorder's hot-path contract:
// with a bounded recorder warmed past its first compactions, recording a
// task (attempt start + end with phase synthesis + task done) performs
// zero heap allocations.
func TestSpanRecordSteadyStateAlloc(t *testing.T) {
	r := NewSpanRecorder()
	r.Bound(256)
	n := 0
	for ; n < 4096; n++ {
		recordTask(r, n)
	}
	if got := testing.AllocsPerRun(500, func() {
		recordTask(r, n)
		n++
	}); got != 0 {
		t.Fatalf("steady-state span recording allocates %.1f times per task, want 0", got)
	}
}

// TestBoundedRecorderCompacts checks the bound holds and casualties are
// counted: retained spans plateau at ~2x the limit while Dropped grows.
func TestBoundedRecorderCompacts(t *testing.T) {
	r := NewSpanRecorder()
	r.Bound(64)
	const tasks = 500
	for i := 0; i < tasks; i++ {
		recordTask(r, i)
	}
	if r.Len() > 2*64 {
		t.Fatalf("bounded recorder retains %d spans, want <= %d", r.Len(), 2*64)
	}
	total := uint64(r.Len()) + r.Dropped()
	unbounded := NewSpanRecorder()
	for i := 0; i < tasks; i++ {
		recordTask(unbounded, i)
	}
	if want := uint64(unbounded.Len()); total != want {
		t.Fatalf("retained+dropped = %d, want %d (every span accounted for)", total, want)
	}
}

// TestBoundedRecorderKeepsTail checks compaction drops oldest-first: the
// bounded recorder's retained spans are exactly the tail of what an
// unbounded recorder produces from the same event sequence, unchanged
// span for span.
func TestBoundedRecorderKeepsTail(t *testing.T) {
	bounded := NewSpanRecorder()
	bounded.Bound(32)
	unbounded := NewSpanRecorder()
	for i := 0; i < 200; i++ {
		recordTask(bounded, i)
		recordTask(unbounded, i)
	}
	all := unbounded.Set().Spans
	kept := bounded.Set().Spans
	tail := all[len(all)-len(kept):]
	for i := range kept {
		if kept[i] != tail[i] {
			t.Fatalf("retained span %d = %+v, want tail span %+v", i, kept[i], tail[i])
		}
	}
}

// TestBoundedRecorderKeepsOpenTraces checks a still-open task's spans
// survive compaction however old they are, and that its attempt can still
// be closed afterwards (the span-index map is re-anchored correctly).
func TestBoundedRecorderKeepsOpenTraces(t *testing.T) {
	r := NewSpanRecorder()
	r.Bound(16)

	// Open a long-lived task and leave its attempt in flight.
	straggler := &model.Task{ID: 9999, App: "straggler"}
	sid := r.AttemptStart(straggler, model.PlaceVM, false, 0)

	// Churn enough settled tasks to force several compactions.
	for i := 0; i < 300; i++ {
		recordTask(r, i)
	}
	if r.Dropped() == 0 {
		t.Fatal("no compaction happened; test needs more churn")
	}

	found := false
	for _, sp := range r.Set().Spans {
		if sp.Trace == 9999 && sp.Name == SpanAttempt {
			found = true
		}
	}
	if !found {
		t.Fatal("open trace's attempt span was compacted away")
	}

	// Closing the straggler must still find and finish its span.
	at := sim.Time(400)
	o := benchOutcome(straggler, at-2)
	r.AttemptEnd(sid, o, StatusWin, at)
	r.TaskDone(o, at)
	for _, sp := range r.Set().Spans {
		if sp.Trace == 9999 && sp.Name == SpanAttempt {
			if sp.Status != StatusWin {
				t.Fatalf("straggler attempt status = %q after AttemptEnd, want %q", sp.Status, StatusWin)
			}
			return
		}
	}
	t.Fatal("straggler attempt span missing after close")
}

// TestBoundedRecorderAllocatesBufferOnce checks the bounded buffer's
// life: nothing at Bound, so building a system with spans on costs
// nothing, one allocation at the first span, and no regrowth across any
// number of compactions.
func TestBoundedRecorderAllocatesBufferOnce(t *testing.T) {
	r := NewSpanRecorder()
	r.Bound(64)
	if cap(r.spans) != 0 {
		t.Fatalf("Bound allocated %d spans up front", cap(r.spans))
	}
	recordTask(r, 0)
	c := cap(r.spans)
	if c < 2*64 {
		t.Fatalf("first span allocated room for %d spans, want at least a compaction cycle (%d)", c, 2*64)
	}
	for i := 1; i < 2000; i++ {
		recordTask(r, i)
	}
	if r.Dropped() == 0 || cap(r.spans) != c {
		t.Fatalf("after %d drops the buffer holds %d spans, want the first allocation's %d", r.Dropped(), cap(r.spans), c)
	}
}

// TestBoundPanicsOnNonPositive pins Bound's argument contract.
func TestBoundPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bound(0) did not panic")
		}
	}()
	NewSpanRecorder().Bound(0)
}
