package exp

import (
	"errors"
	"fmt"

	"offload/internal/callgraph"
	"offload/internal/cicd"
	"offload/internal/core"
	"offload/internal/device"
	"offload/internal/metrics"
	"offload/internal/network"
	"offload/internal/profile"
	"offload/internal/rng"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// e8Build pairs a pipeline build with the simulation engine its platform
// runs on. Earlier versions kept a package-level platform→engine map,
// which was shared mutable state; carrying the engine explicitly keeps
// E8 a pure function of its Scale so it can run concurrently with the
// rest of the suite.
type e8Build struct {
	build *cicd.Build
	eng   *sim.Engine
}

// E8Pipeline reproduces the CI/CD integration analysis (Table 3):
// per-stage durations of a vanilla deploy pipeline versus the
// offload-integrated pipeline on three application templates, plus a
// regression round showing SLO-triggered rollback.
//
// Expected shape: the offload stages (profile, partition, per-function
// deploy, canary) add minutes of pipeline time but profiling overlaps the
// existing unit-test stage, so end-to-end overhead stays well below the
// stage-sum; the injected regression fails the canary, the deployment
// rolls back, and release is skipped.
func E8Pipeline(s Scale) ([]*metrics.Table, error) {
	apps := []string{"report-gen", "ml-batch", "sci-batch"}

	stageTbl := metrics.NewTable(
		"E8 (Tab 3a): pipeline stage durations (vanilla vs offload-integrated)",
		"app", "pipeline", "stage", "start_s", "dur_s")
	totalTbl := metrics.NewTable(
		"E8 (Tab 3b): end-to-end pipeline time and overhead",
		"app", "vanilla_s", "offload_s", "overhead")

	templates := callgraph.Templates()
	for _, app := range apps {
		g := templates[app]
		vanRep, _, err := runPipeline(e8Build{build: &cicd.Build{App: g}, eng: sim.NewEngine()})
		if err != nil {
			return nil, err
		}
		offRep, _, err := runPipeline(newE8Build(s, g, 0, nil))
		if err != nil {
			return nil, err
		}
		for _, res := range vanRep.Results {
			stageTbl.AddRow(app, "vanilla", res.Name,
				seconds(float64(res.Start)), seconds(float64(res.Duration())))
		}
		for _, res := range offRep.Results {
			stageTbl.AddRow(app, "offload", res.Name,
				seconds(float64(res.Start)), seconds(float64(res.Duration())))
		}
		overhead := float64(offRep.Duration())/float64(vanRep.Duration()) - 1
		totalTbl.AddRow(app,
			seconds(float64(vanRep.Duration())),
			seconds(float64(offRep.Duration())),
			pct(overhead))
	}

	// Regression round: a healthy deploy establishes the manifest, then a
	// 5x-slower build goes through the same pipeline.
	rbTbl := metrics.NewTable(
		"E8 (Tab 3c): canary verdict and rollback on an injected regression",
		"round", "canary_mean_s", "canary_slo_s", "passed", "rolled_back", "released")
	g := templates["report-gen"]
	healthyRep, healthyCtx, err := runPipeline(newE8Build(s, g, 0, nil))
	if err != nil {
		return nil, err
	}
	addRollbackRow(rbTbl, "healthy", healthyRep, healthyCtx)

	var prev *cicd.Manifest
	if mv, ok := healthyCtx.Get(cicd.KeyManifest); ok {
		prev = mv.(*cicd.Manifest)
	}
	regRep, regCtx, err := runPipeline(newE8Build(s, g, 5, prev))
	if err != nil {
		return nil, err
	}
	addRollbackRow(rbTbl, "regressed(5x)", regRep, regCtx)

	return []*metrics.Table{stageTbl, totalTbl, rbTbl}, nil
}

func newE8Build(s Scale, g *callgraph.Graph, regression float64, prev *cicd.Manifest) e8Build {
	eng := sim.NewEngine()
	platform := serverless.NewPlatform(eng, rng.New(s.Seed), serverless.LambdaLike())
	return e8Build{
		eng: eng,
		build: &cicd.Build{
			App:              g,
			Platform:         platform,
			Meter:            profile.NewMeter(rng.New(s.Seed+1), 0.05),
			Cost:             core.CostModelFor(device.Smartphone(), serverless.LambdaLike(), serverless.LambdaLike().FullShareBytes, network.WiFiCloud(), core.DefaultWeights()),
			ProfileRuns:      30,
			Canary:           cicd.CanarySpec{Invocations: 5, SLOFactor: 2},
			Previous:         prev,
			InjectRegression: regression,
			WithOffload:      true,
		},
	}
}

func runPipeline(b e8Build) (cicd.Report, *cicd.Context, error) {
	p, err := b.build.Pipeline()
	if err != nil {
		return cicd.Report{}, nil, err
	}
	ctx := cicd.NewContext()
	var rep cicd.Report
	p.Run(b.eng, ctx, func(r cicd.Report) { rep = r })
	b.eng.Run()
	return rep, ctx, nil
}

func addRollbackRow(tbl *metrics.Table, round string, rep cicd.Report, ctx *cicd.Context) {
	var canary cicd.CanaryResult
	if cv, ok := ctx.Get(cicd.KeyCanary); ok {
		canary = cv.(cicd.CanaryResult)
	}
	rb, _ := rep.Stage("rollback")
	rolledBack := errors.Is(rb.Err, cicd.ErrRolledBack)
	release, _ := rep.Stage("release")
	tbl.AddRow(round,
		seconds(canary.MeanExecS),
		seconds(2*canary.ExpectedS),
		fmt.Sprintf("%v", canary.Passed),
		fmt.Sprintf("%v", rolledBack),
		fmt.Sprintf("%v", !release.Skipped && release.Err == nil),
	)
}
