package sched

import (
	"math"

	"offload/internal/alloc"
	"offload/internal/model"
	"offload/internal/rng"
)

// Policy decides where a task runs.
type Policy interface {
	// Name identifies the policy in results tables.
	Name() string
	// Decide returns the placement for the task.
	Decide(task *model.Task, env *Env, pred Predictor) model.Placement
}

// LocalOnly never offloads: the no-offloading baseline.
type LocalOnly struct{}

var _ Policy = LocalOnly{}

// Name implements Policy.
func (LocalOnly) Name() string { return "local-only" }

// Decide implements Policy.
func (LocalOnly) Decide(*model.Task, *Env, Predictor) model.Placement {
	return model.PlaceLocal
}

// orLocal returns p when the environment serves it and local otherwise:
// how the static baselines degrade.
func (e *Env) orLocal(p model.Placement) model.Placement {
	if e.Serves(p) {
		return p
	}
	return model.PlaceLocal
}

// EdgeAll offloads everything to the edge site — the edge-computing
// comparator. It degrades to local when the environment has no edge.
type EdgeAll struct{}

var _ Policy = EdgeAll{}

// Name implements Policy.
func (EdgeAll) Name() string { return "edge-all" }

// Decide implements Policy.
func (EdgeAll) Decide(_ *model.Task, env *Env, _ Predictor) model.Placement {
	return env.orLocal(model.PlaceEdge)
}

// CloudAll offloads everything to serverless — the naive cloud policy.
type CloudAll struct{}

var _ Policy = CloudAll{}

// Name implements Policy.
func (CloudAll) Name() string { return "cloud-all" }

// Decide implements Policy.
func (CloudAll) Decide(_ *model.Task, env *Env, _ Predictor) model.Placement {
	return env.orLocal(model.PlaceFunction)
}

// VMAll offloads everything to the always-on VM fleet.
type VMAll struct{}

var _ Policy = VMAll{}

// Name implements Policy.
func (VMAll) Name() string { return "vm-all" }

// Decide implements Policy.
func (VMAll) Decide(_ *model.Task, env *Env, _ Predictor) model.Placement {
	return env.orLocal(model.PlaceVM)
}

// Random picks uniformly among the available placements — the sanity
// baseline every informed policy must beat.
type Random struct {
	Src *rng.Source
}

var _ Policy = (*Random)(nil)

// Name implements Policy.
func (*Random) Name() string { return "random" }

// Decide implements Policy.
func (r *Random) Decide(_ *model.Task, env *Env, _ Predictor) model.Placement {
	avail := env.Available()
	return avail[r.Src.Intn(len(avail))]
}

// Threshold is the classic static heuristic from the offloading
// literature: offload to serverless whenever the predicted demand exceeds
// a fixed cycle count, run locally otherwise. It ignores data sizes,
// deadlines, prices and queue states — exactly the information the
// deadline-aware policy uses — and so serves as the "informed but static"
// baseline between Random and DeadlineAware.
type Threshold struct {
	// Cycles is the offloading threshold. Zero offloads everything that
	// the environment can serve remotely.
	Cycles float64
}

var _ Policy = (*Threshold)(nil)

// Name implements Policy.
func (*Threshold) Name() string { return "threshold" }

// Decide implements Policy.
func (t *Threshold) Decide(task *model.Task, env *Env, pred Predictor) model.Placement {
	if !env.Serves(model.PlaceFunction) {
		return model.PlaceLocal
	}
	if pred.PredictCycles(task) > t.Cycles {
		return model.PlaceFunction
	}
	return model.PlaceLocal
}

// DeadlineAware is the framework's policy. For each available placement it
// estimates end-to-end completion time, device energy and dollar cost from
// the demand prediction, current queue backlogs and the network model;
// among placements expected to finish within Safety × deadline it picks
// the one with the lowest weighted money+energy score. Tasks without a
// deadline treat every placement as feasible — pure cost minimisation,
// which is exactly what "non-time-critical" buys.
type DeadlineAware struct {
	// Safety derates the deadline to absorb estimation error. Default 0.8.
	Safety float64
	// EnergyUSDPerJ converts device energy to money: by default a full
	// 12 Wh battery is valued at one dollar (≈2.3e-5 $/J).
	EnergyUSDPerJ float64
	// TimeUSDPerSec breaks ties toward faster placements. Default 1e-9.
	TimeUSDPerSec float64
}

var _ Policy = (*DeadlineAware)(nil)

// NewDeadlineAware returns the policy with default weights.
func NewDeadlineAware() *DeadlineAware {
	return &DeadlineAware{Safety: 0.8, EnergyUSDPerJ: 2.3e-5, TimeUSDPerSec: 1e-9}
}

// Name implements Policy.
func (*DeadlineAware) Name() string { return "deadline-aware" }

// Decide implements Policy.
func (d *DeadlineAware) Decide(task *model.Task, env *Env, pred Predictor) model.Placement {
	predTask := *task
	predTask.Cycles = pred.PredictCycles(task)

	budget := math.Inf(1)
	if task.HasDeadline() {
		budget = float64(task.Deadline) * d.Safety
	}
	// Available is in canonical order (local, edge, function, VM), so
	// ties resolve by that order.
	best, bestScore := model.PlaceUnknown, math.Inf(1)
	fastest, fastestTime := model.PlaceUnknown, math.Inf(1)
	for _, p := range env.Available() {
		e := env.Estimate(p, &predTask)
		if !e.OK {
			continue
		}
		t := e.Time()
		if t < fastestTime {
			fastest, fastestTime = p, t
		}
		if t > budget {
			continue
		}
		score := e.MoneyUSD + e.EnergyJ*d.EnergyUSDPerJ + t*d.TimeUSDPerSec
		if score < bestScore {
			best, bestScore = p, score
		}
	}
	if best != model.PlaceUnknown {
		return best
	}
	if fastest != model.PlaceUnknown {
		return fastest
	}
	return model.PlaceLocal
}

// EstimateFor sizes (without deploying) the function that would serve the
// task, returning the allocator's expected time and cost.
func (p *FunctionPool) EstimateFor(task *model.Task, predictedCycles float64) (alloc.Decision, error) {
	return p.alloc.Choose(p.request(task, predictedCycles))
}
