package exp

import (
	"offload/internal/core"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/sim"
	"offload/internal/workload"
)

// runResult is one simulated cell: a policy on a workload.
type runResult struct {
	stats     *sched.Stats
	infraUSD  float64
	coldRate  float64
	simEvents uint64
	system    *core.System
}

// feed says how runCell feeds one cell's system. By default it streams
// s.Tasks tasks of the mix as Poisson arrivals at rate from time zero.
type feed struct {
	rate float64
	// startAt delays the stream's start (E11 begins in peak pricing hours).
	startAt sim.Time
	// tag edits each task between generation and submission (E20 assigns
	// priorities by task ID).
	tag func(*model.Task)
	// setup runs on the built system before anything else touches it
	// (E18 turns on spans, E17 and E19 subscribe recorders).
	setup func(*core.System)
	// drive, when set, submits the arrivals itself in place of the
	// Poisson stream (E19's drift regimes).
	drive func(sys *core.System, gen *workload.Generator)
}

// runCell builds a system from cfg, feeds it the mix as c says, runs it to
// completion and returns the aggregate. When the Scale carries an
// Observation, the cell is sampled while it runs and its end-of-run
// registry folds into the experiment-wide aggregate.
func runCell(s Scale, cfg core.Config, mix []workload.WeightedTemplate, c feed) (runResult, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return runResult{}, err
	}
	if c.setup != nil {
		c.setup(sys)
	}
	var obs *core.Observer
	if s.Obs != nil {
		obs = s.Obs.attach(sys)
	}
	gen, err := workload.NewGenerator(sys.Src.Split(), mix)
	if err != nil {
		return runResult{}, err
	}
	submit := sys.Submit
	if c.tag != nil {
		submit = func(t *model.Task) {
			c.tag(t)
			sys.Submit(t)
		}
	}
	stream := func() {
		workload.StreamFrom(sys.Eng, sys.Env.Tasks, workload.NewPoisson(sys.Src.Split(), c.rate), gen, s.Tasks, submit)
	}
	switch {
	case c.drive != nil:
		c.drive(sys, gen)
	case c.startAt > 0:
		sys.Eng.At(c.startAt, stream)
	default:
		stream()
	}
	sys.Run()
	if s.Obs != nil {
		if err := s.Obs.collect(obs, sys); err != nil {
			return runResult{}, err
		}
	}

	res := runResult{
		stats:     sys.Stats(),
		infraUSD:  sys.InfrastructureCostUSD(),
		simEvents: sys.Eng.Fired(),
		system:    sys,
	}
	if p := sys.Platform(); p != nil {
		st := p.Stats()
		if st.Invocations > 0 {
			res.coldRate = float64(st.ColdStarts) / float64(st.Invocations)
		}
	}
	return res, nil
}

// scaleDeadlines multiplies every template deadline by factor.
func scaleDeadlines(mix []workload.WeightedTemplate, factor float64) []workload.WeightedTemplate {
	out := make([]workload.WeightedTemplate, len(mix))
	copy(out, mix)
	for i := range out {
		out[i].Template.Deadline = sim.Duration(float64(out[i].Template.Deadline) * factor)
	}
	return out
}

// newSeedSource derives a seed stream for replicated cells.
func newSeedSource(base uint64) *rng.Source { return rng.New(base) }
