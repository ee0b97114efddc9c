package model

import (
	"math"
	"strings"
	"testing"

	"offload/internal/sim"
)

func TestPlacementString(t *testing.T) {
	tests := []struct {
		p    Placement
		want string
	}{
		{PlaceLocal, "local"},
		{PlaceEdge, "edge"},
		{PlaceFunction, "function"},
		{PlaceVM, "vm"},
		{PlaceUnknown, "unknown"},
		{Placement(99), "placement(99)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Placement(%d).String() = %q, want %q", int(tt.p), got, tt.want)
		}
	}
}

func TestAllPlacementsDistinct(t *testing.T) {
	seen := map[Placement]bool{}
	for _, p := range AllPlacements() {
		if seen[p] {
			t.Fatalf("duplicate placement %v", p)
		}
		if p == PlaceUnknown {
			t.Fatal("AllPlacements includes PlaceUnknown")
		}
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Fatalf("AllPlacements returned %d entries, want 4", len(seen))
	}
}

func TestTaskValidate(t *testing.T) {
	tests := []struct {
		name    string
		task    *Task
		wantErr string
	}{
		{"valid", &Task{ID: 1, Cycles: 1e9, InputBytes: 100}, ""},
		{"zero is valid", &Task{}, ""},
		{"negative cycles", &Task{Cycles: -1}, "negative cycles"},
		{"negative input", &Task{InputBytes: -1}, "negative transfer"},
		{"negative output", &Task{OutputBytes: -5}, "negative transfer"},
		{"negative memory", &Task{MemoryBytes: -1}, "negative memory"},
		{"negative deadline", &Task{Deadline: -1}, "negative deadline"},
		{"parallel fraction low", &Task{ParallelFraction: -0.1}, "parallel fraction"},
		{"parallel fraction high", &Task{ParallelFraction: 1.1}, "parallel fraction"},
		{"parallel fraction ok", &Task{ParallelFraction: 0.8}, ""},
		{"NaN cycles", &Task{Cycles: math.NaN()}, "non-finite cycles"},
		{"+Inf cycles", &Task{Cycles: math.Inf(1)}, "non-finite cycles"},
		{"-Inf cycles", &Task{Cycles: math.Inf(-1)}, "non-finite cycles"},
		{"NaN parallel fraction", &Task{ParallelFraction: math.NaN()}, "parallel fraction"},
		{"+Inf parallel fraction", &Task{ParallelFraction: math.Inf(1)}, "parallel fraction"},
		{"NaN deadline", &Task{Deadline: sim.Duration(math.NaN())}, "non-finite deadline"},
		{"+Inf deadline", &Task{Deadline: sim.Duration(math.Inf(1))}, "non-finite deadline"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.task.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestNilTaskValidate(t *testing.T) {
	var task *Task
	if err := task.Validate(); err == nil {
		t.Fatal("nil task validated")
	}
}

func TestHasDeadline(t *testing.T) {
	if (&Task{}).HasDeadline() {
		t.Error("zero deadline should mean no deadline")
	}
	if !(&Task{Deadline: 10}).HasDeadline() {
		t.Error("positive deadline not detected")
	}
}

func TestOutcomeCompletionAndMiss(t *testing.T) {
	task := &Task{Deadline: 5}
	o := Outcome{Task: task, Started: 10, Finished: 17}
	if got := o.CompletionTime(); got != 7 {
		t.Fatalf("CompletionTime = %v, want 7", got)
	}
	if !o.MissedDeadline() {
		t.Fatal("deadline miss not detected")
	}
	o.Finished = 14
	if o.MissedDeadline() {
		t.Fatal("false deadline miss")
	}
	o.Task = &Task{} // no deadline
	o.Finished = 1000
	if o.MissedDeadline() {
		t.Fatal("task without deadline reported a miss")
	}
}

func TestExecReportDuration(t *testing.T) {
	r := ExecReport{Start: 2, End: 9}
	if r.Duration() != sim.Duration(7) {
		t.Fatalf("Duration = %v, want 7", r.Duration())
	}
}

func TestByteConstants(t *testing.T) {
	if KB != 1024 || MB != 1024*1024 || GB != 1024*1024*1024 {
		t.Fatal("byte constants wrong")
	}
	if GHz != 1e9 || MHz != 1e6 {
		t.Fatal("clock constants wrong")
	}
}
