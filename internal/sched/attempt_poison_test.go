//go:build taskpoison

package sched

import (
	"math"
	"testing"

	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sim"
)

// keepingBackend finishes every remote execution one second later and
// keeps each record it was handed.
type keepingBackend struct {
	eng  *sim.Engine
	kept []*RemoteAttempt
}

func (b *keepingBackend) Execute(a *RemoteAttempt) {
	b.kept = append(b.kept, a)
	b.eng.After(1, a.Resume(model.ExecReport{Start: b.eng.Now(), End: b.eng.Now() + 1}))
}

// TestReleasedAttemptIsPoisoned runs two remote tasks one after the other
// on one scheduler. In a taskpoison build the second may not reuse the
// first's record, the released records read as poisoned, and a late
// reply or a zombie continuation that reaches one panics.
func TestReleasedAttemptIsPoisoned(t *testing.T) {
	eng := sim.NewEngine()
	b := &keepingBackend{eng: eng}
	env := &Env{
		Eng:    eng,
		Device: device.New(eng, device.Laptop()),
		Edge: edge.New(eng, edge.Config{
			Name: "edge", Servers: 1, Cores: 1, CPUHz: 1e9, MemoryPerServer: model.GB,
		}),
		EdgePath: network.New(eng, rng.New(1), network.Config{
			Name: "lan", OneWayDelay: 0.001, UplinkBps: 1e9, DownlinkBps: 1e9,
		}),
		Remote: b,
	}
	s, err := New(env, EdgeAll{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := model.TaskID(1); id <= 2; id++ {
		s.Submit(&model.Task{ID: id, App: "a", InputBytes: 1 << 10, OutputBytes: 1 << 10, Cycles: 1e9})
		eng.Run()
	}
	if st := s.Stats(); st.Completed != 2 || len(b.kept) != 2 {
		t.Fatalf("completed %d, %d remote executions; want 2, 2", st.Completed, len(b.kept))
	}
	if b.kept[0] == b.kept[1] {
		t.Fatal("the second attempt reused the first one's released record")
	}
	for _, a := range b.kept {
		if a.Task() != nil || !math.IsNaN(a.Predicted()) || a.Placement() != -1 {
			t.Fatalf("released record reads as live: task %v, predicted %v, placement %v",
				a.Task(), a.Predicted(), a.Placement())
		}
	}
	mustPanic(t, "a late reply to a released record", func() { b.kept[0].Resume(model.ExecReport{}) })
	mustPanic(t, "a zombie continuation on a released record", b.kept[1].resume)
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}
