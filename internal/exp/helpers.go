package exp

import (
	"fmt"

	"offload/internal/core"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/sim"
	"offload/internal/trace"
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

// runCell builds a system from cfg, streams s.Tasks tasks of the template
// mix at the Poisson rate, runs to completion, and returns the aggregate.
// When the Scale carries an Observation, the cell is sampled while it runs
// and its end-of-run registry folds into the experiment-wide aggregate.
func runCell(s Scale, cfg core.Config, mix []workload.WeightedTemplate, rate float64) (runResult, error) {
	return runCellAt(s, cfg, mix, rate, 0)
}

// runCellAt is runCell with the stream starting at the given virtual time
// (used by E11 to begin arrivals during peak pricing hours).
func runCellAt(s Scale, cfg core.Config, mix []workload.WeightedTemplate, rate float64, startAt sim.Time) (runResult, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return runResult{}, err
	}
	return driveCell(s, sys, mix, rate, startAt)
}

// runCellTagged is runCell with a per-task tag applied at submission time
// (E20 uses it to assign priorities deterministically by task ID). A nil
// tag is identical to runCell.
func runCellTagged(s Scale, cfg core.Config, mix []workload.WeightedTemplate, rate float64, tag func(*model.Task)) (runResult, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return runResult{}, err
	}
	return driveCellTagged(s, sys, mix, rate, 0, tag)
}

// runCellSpans is runCell with causal span recording enabled on the cell
// (used by E18, which needs spans regardless of the Runner's settings).
// The run name labels the exported span set.
func runCellSpans(s Scale, name string, cfg core.Config, mix []workload.WeightedTemplate, rate float64) (runResult, *trace.SpanSet, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return runResult{}, nil, err
	}
	sys.EnableSpans().SetMeta(name, string(cfg.Policy))
	res, err := driveCell(s, sys, mix, rate, 0)
	if err != nil {
		return runResult{}, nil, err
	}
	return res, sys.SpanSet(), nil
}

// driveCell streams s.Tasks tasks of the mix into a built system, runs it
// to completion, and returns the aggregate.
func driveCell(s Scale, sys *core.System, mix []workload.WeightedTemplate, rate float64, startAt sim.Time) (runResult, error) {
	return driveCellTagged(s, sys, mix, rate, startAt, nil)
}

// driveCellTagged is driveCell with an optional per-task tag applied
// between generation and submission. A nil tag submits the stream exactly
// as driveCell does.
func driveCellTagged(s Scale, sys *core.System, mix []workload.WeightedTemplate, rate float64, startAt sim.Time, tag func(*model.Task)) (runResult, error) {
	var obs *core.Observer
	if s.Obs != nil {
		obs = s.Obs.attach(sys)
	}
	gen, err := workload.NewGenerator(sys.Src.Split(), mix)
	if err != nil {
		return runResult{}, err
	}
	count := s.Tasks
	submit := sys.Submit
	if tag != nil {
		submit = func(t *model.Task) {
			tag(t)
			sys.Submit(t)
		}
	}
	if startAt > 0 {
		sys.Eng.At(startAt, func() {
			workload.Stream(sys.Eng, workload.NewPoisson(sys.Src.Split(), rate), gen, count, submit)
		})
	} else {
		workload.Stream(sys.Eng, workload.NewPoisson(sys.Src.Split(), rate), gen, count, submit)
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

// pct formats a fraction as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// usd formats dollars with enough precision for micro-bills.
func usd(v float64) string {
	switch {
	case v == 0:
		return "$0"
	case v < 0.001:
		return fmt.Sprintf("$%.2e", v)
	default:
		return fmt.Sprintf("$%.4f", v)
	}
}

// seconds formats a duration in seconds.
func seconds(v float64) string { return fmt.Sprintf("%.3gs", v) }

// newSeedSource derives a seed stream for replicated cells.
func newSeedSource(base uint64) *rng.Source { return rng.New(base) }
