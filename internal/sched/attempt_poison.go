//go:build taskpoison

package sched

import (
	"math"

	"offload/internal/model"
)

// release, in a taskpoison build, poisons a finished record and never
// reuses it: with no scheduler, no callbacks and no hop, a late backend
// reply or a zombie continuation that reaches it panics, and a read of
// its prediction or outcome sees NaN.
func (p *AttemptPool) release(a *RemoteAttempt) {
	nan := math.NaN()
	*a = RemoteAttempt{placement: -1, started: -1, predicted: nan, up: -1, down: -1, energy: nan,
		rep: model.ExecReport{Start: -1, End: -1, CostUSD: nan}}
}
