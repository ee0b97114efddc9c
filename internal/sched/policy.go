package sched

import (
	"math"

	"offload/internal/alloc"
	"offload/internal/model"
	"offload/internal/network"
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

// EdgeAll offloads everything to the edge site — the edge-computing
// comparator. It degrades to local when the environment has no edge.
type EdgeAll struct{}

var _ Policy = EdgeAll{}

// Name implements Policy.
func (EdgeAll) Name() string { return "edge-all" }

// Decide implements Policy.
func (EdgeAll) Decide(_ *model.Task, env *Env, _ Predictor) model.Placement {
	if env.Edge == nil {
		return model.PlaceLocal
	}
	return model.PlaceEdge
}

// CloudAll offloads everything to serverless — the naive cloud policy.
type CloudAll struct{}

var _ Policy = CloudAll{}

// Name implements Policy.
func (CloudAll) Name() string { return "cloud-all" }

// Decide implements Policy.
func (CloudAll) Decide(_ *model.Task, env *Env, _ Predictor) model.Placement {
	if env.Functions == nil {
		return model.PlaceLocal
	}
	return model.PlaceFunction
}

// VMAll offloads everything to the always-on VM fleet.
type VMAll struct{}

var _ Policy = VMAll{}

// Name implements Policy.
func (VMAll) Name() string { return "vm-all" }

// Decide implements Policy.
func (VMAll) Decide(_ *model.Task, env *Env, _ Predictor) model.Placement {
	if env.VM == nil {
		return model.PlaceLocal
	}
	return model.PlaceVM
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
	if env.Functions == nil {
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

type estimate struct {
	placement model.Placement
	time      float64 // seconds
	energyJ   float64
	moneyUSD  float64
	ok        bool
}

// Decide implements Policy.
func (d *DeadlineAware) Decide(task *model.Task, env *Env, pred Predictor) model.Placement {
	cycles := pred.PredictCycles(task)
	ests := d.estimates(task, env, cycles)

	budget := math.Inf(1)
	if task.HasDeadline() {
		budget = float64(task.Deadline) * d.Safety
	}
	best, bestScore := model.PlaceUnknown, math.Inf(1)
	fastest, fastestTime := model.PlaceUnknown, math.Inf(1)
	for _, e := range ests {
		if !e.ok {
			continue
		}
		if e.time < fastestTime {
			fastest, fastestTime = e.placement, e.time
		}
		if e.time > budget {
			continue
		}
		score := e.moneyUSD + e.energyJ*d.EnergyUSDPerJ + e.time*d.TimeUSDPerSec
		if score < bestScore {
			best, bestScore = e.placement, score
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

// estimates returns one estimate per substrate in the fixed order local,
// edge, function, VM, so ties in Decide resolve by that order. Absent
// substrates leave their slot not ok. The array keeps Decide free of
// allocation.
func (d *DeadlineAware) estimates(task *model.Task, env *Env, cycles float64) [4]estimate {
	predTask := *task
	predTask.Cycles = cycles

	var ests [4]estimate

	// Local: backlog-aware queue estimate plus compute energy.
	dev := env.Device
	localExec := float64(dev.ExecTime(&predTask))
	queueFactor := float64(dev.Backlog())/float64(dev.Config().Cores) + 1
	ests[0] = estimate{
		placement: model.PlaceLocal,
		time:      localExec * queueFactor,
		energyJ:   dev.ComputeEnergyMilliJ(&predTask) / 1000,
		ok:        !dev.Dead(),
	}

	if env.Edge != nil {
		up := float64(env.EdgePath.EstimateTransfer(task.InputBytes, network.Uplink))
		down := float64(env.EdgePath.EstimateTransfer(task.OutputBytes, network.Downlink))
		exec := float64(env.Edge.ExecTime(&predTask))
		cores := env.Edge.Config().Servers * env.Edge.Config().Cores
		qf := float64(env.Edge.QueueLen())/float64(cores) + 1
		ests[1] = estimate{
			placement: model.PlaceEdge,
			time:      up + exec*qf + down,
			energyJ:   d.radioJ(env, up, down),
			// Amortised infrastructure attribution: the core-seconds this
			// task occupies, priced at the site's hourly cost.
			moneyUSD: exec * env.Edge.Config().HourlyCostUSD / (3600 * float64(cores)),
			ok:       env.Edge.Config().MemoryPerServer == 0 || task.MemoryBytes <= env.Edge.Config().MemoryPerServer,
		}
	}

	if env.Functions != nil {
		up := float64(env.CloudPath.EstimateTransfer(task.InputBytes, network.Uplink))
		down := float64(env.CloudPath.EstimateTransfer(task.OutputBytes, network.Downlink))
		dec, err := env.Functions.EstimateFor(task, cycles)
		ests[2] = estimate{
			placement: model.PlaceFunction,
			time:      up + float64(dec.ExpectedTime) + down,
			energyJ:   d.radioJ(env, up, down),
			moneyUSD:  dec.ExpectedCostUSD,
			ok:        err == nil,
		}
	}

	if env.VM != nil {
		path := env.CloudPath
		up := float64(path.EstimateTransfer(task.InputBytes, network.Uplink))
		down := float64(path.EstimateTransfer(task.OutputBytes, network.Downlink))
		exec := float64(env.VM.ExecTime(&predTask))
		cores := env.VM.Instances() * env.VM.Config().Cores
		qf := 1.0
		if cores > 0 {
			qf = float64(env.VM.QueueLen())/float64(cores) + 1
		}
		ests[3] = estimate{
			placement: model.PlaceVM,
			time:      up + exec*qf + down,
			energyJ:   d.radioJ(env, up, down),
			moneyUSD:  exec * env.VM.Config().HourlyCostUSD / (3600 * float64(env.VM.Config().Cores)),
			ok:        true,
		}
	}
	return ests
}

func (d *DeadlineAware) radioJ(env *Env, upSec, downSec float64) float64 {
	cfg := env.Device.Config()
	return cfg.TxPowerW*upSec + cfg.RxPowerW*downSec
}

// EstimateFor sizes (without deploying) the function that would serve the
// task, returning the allocator's expected time and cost.
func (p *FunctionPool) EstimateFor(task *model.Task, predictedCycles float64) (alloc.Decision, error) {
	return p.alloc.Choose(p.request(task, predictedCycles))
}
