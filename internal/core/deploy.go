package core

import (
	"fmt"

	"offload/internal/callgraph"
	"offload/internal/cicd"
	"offload/internal/device"
	"offload/internal/network"
	"offload/internal/profile"
	"offload/internal/rng"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// DeployOptions configures one CI/CD pipeline run.
type DeployOptions struct {
	Seed uint64

	Device     device.Config
	Serverless serverless.Config
	CloudPath  network.Config
	Weights    Weights

	ProfileRuns int

	// CanaryInvocations per deployed function; zero disables the canary.
	CanaryInvocations int
	// CanarySLOFactor bounds the canary's observed mean execution time
	// relative to the allocator expectation (default 2).
	CanarySLOFactor float64

	// Previous is the manifest a failed canary rolls back to.
	Previous *cicd.Manifest

	// InjectRegression slows the canary's true demand by this factor, for
	// testing the rollback path.
	InjectRegression float64

	// WithoutOffload runs the vanilla pipeline (baseline).
	WithoutOffload bool
}

// DeployResult is the outcome of one pipeline run.
type DeployResult struct {
	Report     cicd.Report
	Manifest   *cicd.Manifest // nil for vanilla or failed runs
	Canary     *cicd.CanaryResult
	RolledBack bool
}

// RunDeployPipeline runs the deployment pipeline for an application on a
// fresh simulated serverless platform. Defaults mirror DefaultConfig:
// smartphone device, Lambda-like platform, WiFi cloud path.
func RunDeployPipeline(g *callgraph.Graph, opts DeployOptions) (DeployResult, error) {
	if g == nil {
		return DeployResult{}, fmt.Errorf("core: deploy without application graph")
	}
	if opts.Device.CPUHz == 0 {
		opts.Device = device.Smartphone()
	}
	if opts.Serverless.BaselineHz == 0 {
		opts.Serverless = serverless.LambdaLike()
	}
	if opts.CloudPath.UplinkBps == 0 {
		opts.CloudPath = network.WiFiCloud()
	}
	if opts.Weights == (Weights{}) {
		opts.Weights = DefaultWeights()
	}
	if opts.CanarySLOFactor == 0 {
		opts.CanarySLOFactor = 2
	}

	eng := sim.NewEngine()
	platform := serverless.NewPlatform(eng, rng.New(opts.Seed), opts.Serverless)
	build := &cicd.Build{
		App:      g,
		Platform: platform,
		Meter:    profile.NewMeter(rng.New(opts.Seed+1), 0.05),
		Cost: CostModelFor(opts.Device, opts.Serverless,
			opts.Serverless.FullShareBytes, opts.CloudPath, opts.Weights),
		ProfileRuns:      opts.ProfileRuns,
		Canary:           cicd.CanarySpec{Invocations: opts.CanaryInvocations, SLOFactor: opts.CanarySLOFactor},
		Previous:         opts.Previous,
		InjectRegression: opts.InjectRegression,
		WithOffload:      !opts.WithoutOffload,
	}
	pipeline, err := build.Pipeline()
	if err != nil {
		return DeployResult{}, err
	}
	ctx := cicd.NewContext()
	var out DeployResult
	pipeline.Run(eng, ctx, func(r cicd.Report) { out.Report = r })
	eng.Run()

	if mv, ok := ctx.Get(cicd.KeyManifest); ok {
		out.Manifest = mv.(*cicd.Manifest)
	}
	if cv, ok := ctx.Get(cicd.KeyCanary); ok {
		c := cv.(cicd.CanaryResult)
		out.Canary = &c
	}
	if rv, ok := ctx.Get(cicd.KeyRolledBck); ok {
		out.RolledBack = rv.(bool)
	}
	return out, nil
}
