package exp

import (
	"fmt"
	"math"

	"offload/internal/callgraph"
	"offload/internal/core"
	"offload/internal/fault"
	"offload/internal/metrics"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/trace"
	"offload/internal/workload"
)

// e18Rate matches the resilience study's arrival density so hedging has
// enough in-flight overlap to matter.
const e18Rate = 0.2

// e18ColdRatioMin/Max bound the accepted cold-start inflation: doubling
// the cold-start model (median and per-GB surcharge both ×2) must move
// the attributed cold_start critical-path seconds by about the same
// factor. The band is wide because only the critical-path *portion* of
// each cold start scales, and lognormal draws land differently once
// attempt timings shift.
const (
	e18ColdRatioMin = 1.3
	e18ColdRatioMax = 3.0
)

// e18USDTolerance is the accepted absolute drift between span-accounted
// spend and the scheduler's Stats: pure float summation error.
const e18USDTolerance = 1e-9

// E18Attribution validates the span-level critical-path attribution
// against ground truth it can control. Four serverless-only cells run
// the cloud-all policy:
//
//   - baseline:      every container start cold (KeepAlive 0);
//   - cold-2x:       the same cell with the cold-start model doubled —
//     the attributed cold_start seconds must inflate accordingly;
//   - stragglers:    a heavy straggler tail (20% of invocations 6×
//     slower) and no mitigation — exec dominates the P95 band;
//   - hedged:        the same tail raced by a duplicate attempt — the
//     exec share of the P95 band must drop, and the losing attempts
//     must show up in the waste accounting.
//
// Every cell also cross-checks the money identity: the spend summed over
// attempt spans, and over task root spans, must equal the scheduler's
// Stats (completed + failed per-task billing) to float precision —
// span-level accounting invents and loses nothing.
func E18Attribution(s Scale) ([]*metrics.Table, error) {
	mix, err := workload.Mix(callgraph.TemplateNames()...)
	if err != nil {
		return nil, err
	}

	baseCfg := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Seed = s.Seed
		cfg.Policy = core.PolicyCloudAll
		cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
		sl := serverless.LambdaLike()
		cfg.Serverless = &sl
		cfg.ArrivalRateHint = e18Rate
		return cfg
	}

	cells := []struct {
		name  string
		apply func(*core.Config)
	}{
		{"baseline", func(cfg *core.Config) {
			cfg.Serverless.KeepAlive = 0 // every start cold: maximal cold_start signal
		}},
		{"cold-2x", func(cfg *core.Config) {
			cfg.Serverless.KeepAlive = 0
			cfg.Serverless.ColdStart.MedianSec *= 2
			cfg.Serverless.ColdStart.PerGBExtra *= 2
		}},
		{"stragglers", func(cfg *core.Config) {
			cfg.Fault = &fault.Config{
				StragglerProb: 0.2, StragglerFactor: 6, StragglerAlpha: 1.5,
			}
		}},
		{"hedged", func(cfg *core.Config) {
			cfg.Fault = &fault.Config{
				StragglerProb: 0.2, StragglerFactor: 6, StragglerAlpha: 1.5,
			}
			cfg.Resilience = &sched.Resilience{
				HedgeDelay: 10, HedgeQuantile: 0.9, MaxHedges: 1,
			}
		}},
	}

	phaseTbl := metrics.NewTable(
		"E18: critical-path attribution across controlled cells",
		"cell", "phase", "mean_s", "share", "share_p95")
	type cellOut struct {
		att   *trace.Attribution
		waste trace.Waste
		stats *sched.Stats
	}
	outs := make(map[string]cellOut, len(cells))

	for _, cell := range cells {
		cfg := baseCfg()
		cell.apply(&cfg)
		name := "e18_" + cell.name
		res, err := runCell(s, cfg, mix, feed{rate: e18Rate, setup: func(sys *core.System) {
			sys.EnableSpans().SetMeta(name, string(cfg.Policy))
		}})
		if err != nil {
			return nil, err
		}
		set := res.system.SpanSet()
		att := trace.Attribute(set)
		outs[cell.name] = cellOut{att: att, waste: trace.ComputeWaste(set), stats: res.stats}
		if g := att.Group("all"); g != nil {
			for _, phase := range trace.Phases {
				ps := g.Phase[phase]
				if ps.MeanS == 0 {
					continue
				}
				phaseTbl.AddRow(cell.name, phase,
					fmt.Sprintf("%.4g", ps.MeanS),
					pct(ps.ShareMean), pct(ps.ShareP95))
			}
		}
	}

	phaseOf := func(cell, phase string) trace.PhaseStats {
		if g := outs[cell].att.Group("all"); g != nil {
			return g.Phase[phase]
		}
		return trace.PhaseStats{}
	}

	checks := metrics.NewTable(
		"E18: attribution vs ground truth",
		"check", "measured", "expect", "ok")
	pass := true
	add := func(name, measured, expect string, ok bool) {
		verdict := "yes"
		if !ok {
			verdict = "NO"
			pass = false
		}
		checks.AddRow(name, measured, expect, verdict)
	}

	coldBase := phaseOf("baseline", trace.PhaseColdStart).MeanS
	coldRatio := math.Inf(1)
	if coldBase > 0 {
		coldRatio = phaseOf("cold-2x", trace.PhaseColdStart).MeanS / coldBase
	}
	add("cold_start mean inflates under 2x cold model",
		fmt.Sprintf("%.3gx", coldRatio),
		fmt.Sprintf("%.2gx..%.2gx", e18ColdRatioMin, e18ColdRatioMax),
		coldRatio >= e18ColdRatioMin && coldRatio <= e18ColdRatioMax)

	execNoHedge := phaseOf("stragglers", trace.PhaseExec).ShareP95
	execHedged := phaseOf("hedged", trace.PhaseExec).ShareP95
	add("hedging cuts exec share of the P95 band",
		fmt.Sprintf("%s -> %s", pct(execNoHedge), pct(execHedged)),
		"hedged < unhedged", execHedged < execNoHedge)

	hw := outs["hedged"].waste
	add("hedged cell pays for losing attempts",
		fmt.Sprintf("%d lost hedges at %s", hw.LostHedges, usd(hw.LostUSD)),
		"> 0", hw.LostHedges > 0 && hw.LostUSD > 0)

	maxDrift := 0.0
	for _, cell := range cells {
		o := outs[cell.name]
		ground := o.stats.CostUSD + o.stats.FailedCostUSD
		drift := math.Max(
			math.Abs(o.waste.AttemptUSD-ground),
			math.Abs(o.waste.TaskUSD-ground))
		maxDrift = math.Max(maxDrift, drift)
	}
	add("span spend matches scheduler stats (all cells)",
		fmt.Sprintf("%.2e USD drift", maxDrift),
		fmt.Sprintf("<= %.0e", e18USDTolerance), maxDrift <= e18USDTolerance)

	tables := []*metrics.Table{phaseTbl, checks, outs["hedged"].waste.Table()}
	if !pass {
		return tables, fmt.Errorf("exp: E18 attribution check failed (see table %q)", checks.Title())
	}
	return tables, nil
}
