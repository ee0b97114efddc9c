package trace

import (
	"testing"

	"offload/internal/model"
	"offload/internal/sim"
)

// benchOutcome builds the outcome fixture the span benchmarks replay: one
// clean remote win with every phase populated, the shape of the vast
// majority of spans in a healthy run.
func benchOutcome(task *model.Task, at sim.Time) model.Outcome {
	return model.Outcome{
		Task:       task,
		Placement:  model.PlaceFunction,
		Started:    at,
		Finished:   at + 2,
		UplinkTime: 0.25, DownlinkTime: 0.05,
		Exec: model.ExecReport{
			Start: at + 0.25, End: at + 1.95,
			QueueWait: 0.1, ColdStart: 0.2,
		},
		CostUSD:  1e-5,
		Attempts: 1,
	}
}

// BenchmarkSpanRecord measures the steady-state recording cycle for one
// task: attempt start, attempt end (with phase synthesis), task done.
// This is the per-task overhead of running with spans enabled.
func BenchmarkSpanRecord(b *testing.B) {
	r := NewSpanRecorder()
	task := &model.Task{ID: 1, App: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task.ID = model.TaskID(i + 1)
		at := sim.Time(float64(i))
		attemptStart(r, task.ID, 1, model.PlaceFunction, false, at)
		o := benchOutcome(task, at)
		attemptEnd(r, task.ID, 1, o, StatusWin, at+2)
		settle(r, o, at+2)
	}
}

// BenchmarkSpanRecordBounded is the same cycle with a bounded recorder:
// retained spans plateau, so this measures the flat-memory steady state a
// million-task run would see. Unlike the unbounded variant it does not
// slow down with b.N, which makes it the stable regression gate.
func BenchmarkSpanRecordBounded(b *testing.B) {
	r := NewSpanRecorder()
	r.Bound(4096)
	task := &model.Task{ID: 1, App: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task.ID = model.TaskID(i + 1)
		at := sim.Time(float64(i))
		attemptStart(r, task.ID, 1, model.PlaceFunction, false, at)
		o := benchOutcome(task, at)
		attemptEnd(r, task.ID, 1, o, StatusWin, at+2)
		settle(r, o, at+2)
	}
}

// BenchmarkRecorderAdd measures appending one outcome record, the
// per-task cost of a trace.Recorder attached to a System. A fresh recorder every
// 1<<14 records keeps the benchmark's memory bounded while still paying
// for chunk allocation at its real rate.
func BenchmarkRecorderAdd(b *testing.B) {
	r := FromOutcome(benchOutcome(&model.Task{ID: 1, App: "bench"}, 10))
	rec := &Recorder{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(1<<14-1) == 0 {
			rec = &Recorder{}
		}
		rec.Add(r)
	}
}
