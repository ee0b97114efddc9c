package cicd

import (
	"errors"
	"strings"
	"testing"

	"offload/internal/callgraph"
	"offload/internal/model"
	"offload/internal/partition"
	"offload/internal/profile"
	"offload/internal/rng"
	"offload/internal/serverless"
	"offload/internal/sim"
)

func testPlatform(eng *sim.Engine) *serverless.Platform {
	return serverless.NewPlatform(eng, rng.New(1), serverless.Config{
		Name:       "ci-faas",
		MinMemory:  128 * model.MB,
		MaxMemory:  8192 * model.MB,
		MemoryStep: 64 * model.MB,
		BaselineHz: 2.5e9, FullShareBytes: 1769 * model.MB, MaxShare: 6,
		ColdStart:        serverless.ColdStartModel{MedianSec: 0.3, Sigma: 0},
		KeepAlive:        420,
		ConcurrencyLimit: 1000,
		Price: serverless.PriceTable{
			PerRequestUSD: 2e-7, PerGBSecondUSD: 1.6667e-5,
			Granularity: 0.001, MinBilled: 0.001,
		},
		PressureKneeRatio: 2, PressurePenalty: 1.5,
	})
}

func testCostModel() partition.CostModel {
	return partition.CostModel{
		LocalHz: 2e9, RemoteHz: 2.5e9,
		BandwidthBps: 50e6, RTTSeconds: 0.05,
		USDPerRemoteSecond: 3e-5,
		EnergyJPerCycle:    1e-9, RadioJPerByte: 1e-7,
		LatencyWeight: 1, EnergyWeight: 0.5, MoneyWeight: 100,
	}
}

func runBuild(t *testing.T, b *Build) Report {
	t.Helper()
	p, err := b.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	eng := b.engine(t)
	var rep Report
	p.Run(eng, NewContext(), func(r Report) { rep = r })
	eng.Run()
	return rep
}

// engine returns the engine the build's platform lives on, or a fresh one
// for vanilla builds.
func (b *Build) engine(t *testing.T) *sim.Engine {
	t.Helper()
	if b.Platform != nil {
		return platformEngine(b.Platform)
	}
	return sim.NewEngine()
}

// platformEngine exposes the engine a test platform was created on.
var engines = map[*serverless.Platform]*sim.Engine{}

func newTestBuild(t *testing.T) *Build {
	t.Helper()
	eng := sim.NewEngine()
	platform := testPlatform(eng)
	engines[platform] = eng
	return &Build{
		App:         callgraph.ReportGen(),
		Platform:    platform,
		Meter:       profile.NewMeter(rng.New(2), 0.05),
		Cost:        testCostModel(),
		ProfileRuns: 10,
		Canary:      CanarySpec{Invocations: 3, SLOFactor: 2},
		WithOffload: true,
	}
}

func platformEngine(p *serverless.Platform) *sim.Engine { return engines[p] }

func TestVanillaPipelineStages(t *testing.T) {
	b := &Build{App: callgraph.ReportGen()}
	rep := runBuild(t, b)
	if !rep.Succeeded() {
		t.Fatalf("vanilla pipeline failed: %+v", rep.Results)
	}
	want := []string{"checkout", "build", "unit-test", "package", "deploy", "release"}
	if len(rep.Results) != len(want) {
		t.Fatalf("stages = %d, want %d", len(rep.Results), len(want))
	}
	for i, name := range want {
		if rep.Results[i].Name != name {
			t.Fatalf("stage %d = %s, want %s", i, rep.Results[i].Name, name)
		}
	}
}

func TestOffloadPipelineProducesArtifactsAndDeploys(t *testing.T) {
	b := newTestBuild(t)
	p, err := b.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	eng := platformEngine(b.Platform)
	ctx := NewContext()
	var rep Report
	p.Run(eng, ctx, func(r Report) { rep = r })
	eng.Run()

	if !rep.Succeeded() {
		t.Fatalf("offload pipeline failed: %+v", rep.Results)
	}
	mv, ok := ctx.Get(KeyManifest)
	if !ok {
		t.Fatal("no manifest artefact")
	}
	manifest := mv.(*Manifest)
	if manifest.App != "report-gen" || len(manifest.Functions) == 0 {
		t.Fatalf("manifest = %+v", manifest)
	}
	for _, spec := range manifest.Functions {
		if b.Platform.Function(spec.Name) == nil {
			t.Errorf("manifest function %s not deployed", spec.Name)
		}
		if !strings.HasPrefix(spec.Name, "report-gen-") {
			t.Errorf("function name %s not namespaced", spec.Name)
		}
	}
	cv, ok := ctx.Get(KeyCanary)
	if !ok {
		t.Fatal("no canary artefact")
	}
	if !cv.(CanaryResult).Passed {
		t.Fatalf("canary failed without regression: %+v", cv)
	}
	// The offloaded components must carry the heavy aggregate stage.
	joined := strings.Join(manifest.Remote, ",")
	if !strings.Contains(joined, "aggregate") {
		t.Errorf("partition did not offload aggregate: %v", manifest.Remote)
	}
}

func TestOffloadPipelineOverheadVsVanilla(t *testing.T) {
	van := &Build{App: callgraph.ReportGen()}
	vanRep := runBuild(t, van)

	off := newTestBuild(t)
	offRep := runBuild(t, off)
	if !vanRep.Succeeded() || !offRep.Succeeded() {
		t.Fatal("pipelines failed")
	}
	if offRep.Duration() <= vanRep.Duration() {
		t.Fatalf("offload pipeline (%v) not slower than vanilla (%v)",
			offRep.Duration(), vanRep.Duration())
	}
	// Profiling runs concurrently with unit tests, so overhead must be far
	// below the naive sum of the added stages.
	overhead := float64(offRep.Duration()-vanRep.Duration()) / float64(vanRep.Duration())
	if overhead > 1.0 {
		t.Fatalf("offload overhead %.0f%% implausibly high", overhead*100)
	}
}

func TestCanaryRegressionTriggersRollback(t *testing.T) {
	// First, a healthy run whose manifest becomes the rollback target.
	healthy := newTestBuild(t)
	healthyRep := runBuild(t, healthy)
	if !healthyRep.Succeeded() {
		t.Fatal("healthy run failed")
	}

	// Second build on the same platform with an injected 5x regression.
	eng := platformEngine(healthy.Platform)
	prev := &Manifest{App: "report-gen"}
	regressed := &Build{
		App:              callgraph.ReportGen(),
		Platform:         healthy.Platform,
		Meter:            profile.NewMeter(rng.New(3), 0.05),
		Cost:             testCostModel(),
		ProfileRuns:      10,
		Canary:           CanarySpec{Invocations: 3, SLOFactor: 2},
		Previous:         prev,
		InjectRegression: 5,
		WithOffload:      true,
	}
	p, err := regressed.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	var rep Report
	p.Run(eng, ctx, func(r Report) { rep = r })
	eng.Run()

	if rep.Succeeded() {
		t.Fatal("regressed deploy succeeded")
	}
	rb, _ := rep.Stage("rollback")
	if !errors.Is(rb.Err, ErrRolledBack) {
		t.Fatalf("rollback.Err = %v, want ErrRolledBack", rb.Err)
	}
	release, _ := rep.Stage("release")
	if !release.Skipped {
		t.Fatal("release ran after rollback")
	}
	if v, ok := ctx.Get(KeyRolledBck); !ok || v.(bool) != true {
		t.Fatal("rollback artefact missing")
	}
	cv, _ := ctx.Get(KeyCanary)
	if cv.(CanaryResult).Passed {
		t.Fatal("canary passed despite 5x regression")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := (&Build{}).Pipeline(); err == nil {
		t.Error("build without app accepted")
	}
	if _, err := (&Build{App: callgraph.ReportGen(), WithOffload: true}).Pipeline(); err == nil {
		t.Error("offload build without platform accepted")
	}
	eng := sim.NewEngine()
	b := &Build{App: callgraph.ReportGen(), WithOffload: true, Platform: testPlatform(eng)}
	if _, err := b.Pipeline(); err == nil {
		t.Error("offload build with zero cost model accepted")
	}
}
