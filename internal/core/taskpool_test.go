//go:build !taskpoison

package core

import (
	"testing"

	"offload/internal/workload"
)

// TestWarmStreamAllocatesNoTasks streams the same number of tasks through
// one warmed System twice per round: through SubmitStream, whose tasks
// come from the system's pool and go back when they settle, and through
// workload.Stream, which allocates each. The pooled stream must allocate
// at least one object per task fewer: no model.Task per task.
func TestWarmStreamAllocatesNoTasks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyLocalOnly
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.StandardMix(sys.Src.Split())
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	arrivals := &workload.Fixed{Gap: 3600} // each task settles before the next arrives
	pooled := testing.AllocsPerRun(5, func() {
		sys.SubmitStream(arrivals, gen, n)
		sys.Run()
	})
	fresh := testing.AllocsPerRun(5, func() {
		workload.Stream(sys.Eng, arrivals, gen, n, sys.Submit)
		sys.Run()
	})
	t.Logf("allocs per %d-task stream: pooled %.0f, allocated %.0f", n, pooled, fresh)
	if pooled > fresh-n {
		t.Errorf("pooled stream allocates %.0f, allocated stream %.0f: want at least %d fewer", pooled, fresh, n)
	}
}
