package adapt

import (
	"offload/internal/alloc"
	"offload/internal/model"
	"offload/internal/profile"
	"offload/internal/sched"
	"offload/internal/sim"
)

// appObs accumulates what the tuner has actually seen of one application's
// serverless executions — the observed statistics that replace the static
// demand model when re-running the allocator.
type appObs struct {
	cycles   *profile.EWMA
	coldFrac float64 // EWMA of the cold-start indicator
	haveCold bool

	// Last-seen task shape, the non-statistical parts of the request.
	memFloor int64
	parFrac  float64
	deadline sim.Duration

	outcomes    int
	sinceRetune int
}

// tuner re-sizes deployed serverless functions online: it feeds per-app
// EWMAs from settled outcomes (observed cycles and cold-start fraction),
// periodically re-runs alloc.Choose against those observations, and
// re-deploys when the predicted optimum moved past a hysteresis band.
type tuner struct {
	alpha       float64 // EWMA smoothing
	hysteresis  float64 // relative memory move that justifies a re-deploy
	minObs      int     // observations before the first re-tune
	every       int     // outcomes between re-tune attempts
	forceRetune bool    // set by drift detection: re-tune at next outcome

	byApp   map[string]*appObs
	resizes uint64
}

func newTuner(cfg Config) *tuner {
	return &tuner{
		alpha:      cfg.TuneAlpha,
		hysteresis: cfg.TuneHysteresis,
		minObs:     cfg.TuneMinObservations,
		every:      cfg.TuneEvery,
		byApp:      make(map[string]*appObs),
	}
}

// Resizes returns how many re-deployments the tuner triggered.
func (t *tuner) Resizes() uint64 { return t.resizes }

// observe folds one settled outcome into the per-app statistics and
// re-tunes when due. It returns the new memory size when a resize
// happened, else 0. Only successful serverless executions carry usable
// exec/cold-start observations.
func (t *tuner) observe(o model.Outcome, env *sched.Env) int64 {
	if o.Task == nil || o.Failed || o.Placement != model.PlaceFunction || env.Functions == nil {
		return 0
	}
	obs, ok := t.byApp[o.Task.App]
	if !ok {
		obs = &appObs{cycles: profile.NewEWMA(t.alpha)}
		t.byApp[o.Task.App] = obs
	}
	obs.cycles.Observe(o.Task.InputBytes, o.Task.Cycles)
	cold := 0.0
	if o.Exec.ColdStart > 0 {
		cold = 1
	}
	if !obs.haveCold {
		obs.coldFrac, obs.haveCold = cold, true
	} else {
		obs.coldFrac += t.alpha * (cold - obs.coldFrac)
	}
	obs.memFloor = o.Task.MemoryBytes
	obs.parFrac = o.Task.ParallelFraction
	obs.deadline = o.Task.Deadline
	obs.outcomes++
	obs.sinceRetune++

	if obs.outcomes < t.minObs {
		return 0
	}
	if !t.forceRetune && obs.sinceRetune < t.every {
		return 0
	}
	t.forceRetune = false
	obs.sinceRetune = 0
	return t.retune(o.Task.App, obs, env.Functions)
}

// retune re-runs the allocator with observed statistics and re-deploys the
// function when the optimum moved past the hysteresis band.
func (t *tuner) retune(app string, obs *appObs, pool *sched.FunctionPool) int64 {
	cur := pool.Sized(app)
	if cur == 0 {
		return 0 // never deployed; the pool will size it on first use
	}
	req := alloc.Request{
		Cycles:           obs.cycles.Predict(0),
		ParallelFraction: obs.parFrac,
		MemoryFloorBytes: obs.memFloor,
		ColdStartProb:    obs.coldFrac,
		TimeBudget:       sched.ExecBudget(obs.deadline),
	}
	d, err := pool.Allocator().Choose(req)
	if err != nil {
		return 0
	}
	if sched.Drift(float64(d.MemoryBytes), float64(cur)) <= t.hysteresis {
		return 0
	}
	if pool.Resize(app, d.MemoryBytes) != nil {
		return 0
	}
	t.resizes++
	return d.MemoryBytes
}
