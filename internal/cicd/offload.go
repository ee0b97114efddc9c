package cicd

import (
	"encoding/json"
	"errors"
	"fmt"

	"offload/internal/alloc"
	"offload/internal/callgraph"
	"offload/internal/model"
	"offload/internal/partition"
	"offload/internal/profile"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// ErrRolledBack marks a pipeline run whose canary violated the SLO and
// whose deployment was reverted to the previous manifest.
var ErrRolledBack = errors.New("cicd: canary violated SLO, deployment rolled back")

// Context keys under which the offload stages publish their artefacts.
const (
	KeyCatalog   = "offload.catalog"
	KeyEstimated = "offload.graph.estimated"
	KeyPartition = "offload.partition"
	KeyManifest  = "offload.manifest"
	KeyCanary    = "offload.canary"
	KeyRolledBck = "offload.rolledback"
)

// FunctionSpec is one deployed function in a manifest.
type FunctionSpec struct {
	Name        string `json:"name"`
	Component   string `json:"component"`
	MemoryBytes int64  `json:"memory_bytes"`
}

// Manifest records what a pipeline run deployed: the partition and the
// sized functions. It is the artefact a rollback restores.
type Manifest struct {
	App       string         `json:"app"`
	Remote    []string       `json:"remote_components"`
	Functions []FunctionSpec `json:"functions"`
}

// Encode returns the manifest's archival format (pretty-printed JSON).
func (m *Manifest) Encode() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// CanarySpec configures the post-deploy verification stage.
type CanarySpec struct {
	// Invocations per deployed function. Zero disables the canary.
	Invocations int
	// SLOFactor bounds the observed mean execution time relative to the
	// allocator's expectation; exceeding it triggers rollback. Default 2.
	SLOFactor float64
}

// CanaryResult is published under KeyCanary.
type CanaryResult struct {
	Invocations int
	MeanExecS   float64
	ExpectedS   float64
	Passed      bool
}

// Build wires the offloading stages for one application into a pipeline.
type Build struct {
	App      *callgraph.Graph
	Platform *serverless.Platform
	Meter    *profile.Meter
	Cost     partition.CostModel

	// ProfileRuns is the number of measured executions per component
	// (default 30); each takes profileRunTime.
	ProfileRuns int

	Canary CanarySpec

	// Previous is the last known-good manifest; rollback re-deploys it.
	Previous *Manifest

	// InjectRegression inflates the true demand seen by canary traffic by
	// this fraction — the E8 knob that forces an SLO violation.
	InjectRegression float64

	// WithOffload false builds the vanilla pipeline (no profile /
	// partition / function stages), the E8 overhead baseline.
	WithOffload bool
}

// Durations of the conventional stages, in virtual seconds. These are
// typical mid-size-service CI numbers; E8 reports relative overhead so the
// absolute values only set the scale.
const (
	checkoutTime  = 20.0
	buildTime     = 90.0
	unitTestTime  = 60.0
	packageTime   = 45.0
	deployFnTime  = 15.0 // per function
	releaseTime   = 10.0
	rollbackTime  = 12.0
	partitionTime = 2.0

	profileRunTime = 2.0 // per measured execution
)

// Pipeline assembles the stage DAG.
func (b *Build) Pipeline() (*Pipeline, error) {
	if b.App == nil {
		return nil, fmt.Errorf("cicd: build without application graph")
	}
	if err := b.App.Validate(); err != nil {
		return nil, err
	}
	name := "deploy-" + b.App.Name()
	p := NewPipeline(name)
	p.MustAdd(Stage{Name: "checkout", Execute: RunFor(checkoutTime, nil)})
	p.MustAdd(Stage{Name: "build", Needs: []string{"checkout"}, Execute: RunFor(buildTime, nil)})
	p.MustAdd(Stage{Name: "unit-test", Needs: []string{"build"}, Execute: RunFor(unitTestTime, nil)})

	if !b.WithOffload {
		p.MustAdd(Stage{Name: "package", Needs: []string{"unit-test"}, Execute: RunFor(packageTime, nil)})
		p.MustAdd(Stage{Name: "deploy", Needs: []string{"package"}, Execute: RunFor(deployFnTime, nil)})
		p.MustAdd(Stage{Name: "release", Needs: []string{"deploy"}, Execute: RunFor(releaseTime, nil)})
		return p, nil
	}
	if b.Platform == nil {
		return nil, fmt.Errorf("cicd: offload build without serverless platform")
	}
	if err := b.Cost.Validate(); err != nil {
		return nil, err
	}

	runs := b.ProfileRuns
	if runs <= 0 {
		runs = 30
	}
	meter := b.Meter
	if meter == nil {
		meter = profile.NewMeter(nil, 0)
	}

	p.MustAdd(Stage{
		Name:  "profile",
		Needs: []string{"build"},
		Execute: func(px *Exec, done func(error)) {
			cat, err := profile.BuildCatalog(b.App, meter, runs)
			if err != nil {
				px.Eng.After(0, func() { done(err) })
				return
			}
			est, err := cat.EstimatedGraph(b.App)
			if err != nil {
				px.Eng.After(0, func() { done(err) })
				return
			}
			px.Ctx.Set(KeyCatalog, cat)
			px.Ctx.Set(KeyEstimated, est)
			// Per-component time × components measured: E8's figures
			// depend on this rounding.
			reprofiled := b.App.Len()
			perComponent := profileRunTime * float64(runs) / float64(reprofiled)
			px.Eng.After(sim.Duration(perComponent*float64(reprofiled)), func() { done(nil) })
		},
	})
	p.MustAdd(Stage{
		Name:  "partition",
		Needs: []string{"profile"},
		Execute: RunFor(partitionTime, func(px *Exec) error {
			v, _ := px.Ctx.Get(KeyEstimated)
			est := v.(*callgraph.Graph)
			res, err := partition.MinCut(est, b.Cost)
			if err != nil {
				return err
			}
			px.Ctx.Set(KeyPartition, res)
			return nil
		}),
	})
	p.MustAdd(Stage{Name: "package", Needs: []string{"unit-test", "partition"}, Execute: RunFor(packageTime, nil)})
	p.MustAdd(Stage{
		Name:  "deploy",
		Needs: []string{"package"},
		Execute: func(px *Exec, done func(error)) {
			manifest, err := b.deploy(px)
			if err != nil {
				px.Eng.After(deployFnTime, func() { done(err) })
				return
			}
			px.Ctx.Set(KeyManifest, manifest)
			px.Eng.After(sim.Duration(deployFnTime*float64(max(1, len(manifest.Functions)))), func() {
				done(nil)
			})
		},
	})
	p.MustAdd(Stage{
		Name:    "canary",
		Needs:   []string{"deploy"},
		Execute: b.canary,
	})
	p.MustAdd(Stage{
		Name:    "rollback",
		Needs:   []string{"canary"},
		Execute: b.rollback,
	})
	p.MustAdd(Stage{Name: "release", Needs: []string{"rollback"}, Execute: RunFor(releaseTime, nil)})
	return p, nil
}

// deploy sizes one function per offloaded component and deploys it.
func (b *Build) deploy(px *Exec) (*Manifest, error) {
	pv, ok := px.Ctx.Get(KeyPartition)
	if !ok {
		return nil, fmt.Errorf("cicd: deploy without partition artefact")
	}
	res := pv.(partition.Result)
	ev, _ := px.Ctx.Get(KeyEstimated)
	est := ev.(*callgraph.Graph)
	cv, _ := px.Ctx.Get(KeyCatalog)
	cat := cv.(*profile.Catalog)

	allocator := alloc.New(b.Platform.Config())
	manifest := &Manifest{App: b.App.Name(), Remote: res.Remote(est)}
	for _, compName := range manifest.Remote {
		prof, ok := cat.Lookup(compName)
		if !ok {
			return nil, fmt.Errorf("cicd: no profile for component %q", compName)
		}
		id, _ := est.Lookup(compName)
		comp := est.Component(id)
		dec, err := allocator.Choose(alloc.Request{
			Cycles:           prof.MeanCycles,
			ParallelFraction: comp.ParallelFraction,
			MemoryFloorBytes: comp.MemoryBytes,
			ColdStartProb:    1,
		})
		if err != nil {
			return nil, fmt.Errorf("cicd: sizing %s: %w", compName, err)
		}
		fnName := b.App.Name() + "-" + compName
		if _, err := b.Platform.Deploy(serverless.FunctionConfig{
			Name:        fnName,
			MemoryBytes: dec.MemoryBytes,
		}); err != nil {
			return nil, fmt.Errorf("cicd: deploying %s: %w", fnName, err)
		}
		manifest.Functions = append(manifest.Functions, FunctionSpec{
			Name: fnName, Component: compName, MemoryBytes: dec.MemoryBytes,
		})
	}
	return manifest, nil
}

// canary sends synthetic invocations through every deployed function and
// compares observed mean execution time against the allocator expectation.
func (b *Build) canary(px *Exec, done func(error)) {
	if b.Canary.Invocations <= 0 {
		px.Ctx.Set(KeyCanary, CanaryResult{Passed: true})
		px.Eng.After(0, func() { done(nil) })
		return
	}
	mv, ok := px.Ctx.Get(KeyManifest)
	if !ok {
		px.Eng.After(0, func() { done(fmt.Errorf("cicd: canary without manifest")) })
		return
	}
	manifest := mv.(*Manifest)
	if len(manifest.Functions) == 0 {
		px.Ctx.Set(KeyCanary, CanaryResult{Passed: true})
		px.Eng.After(0, func() { done(nil) })
		return
	}
	ev, _ := px.Ctx.Get(KeyEstimated)
	est := ev.(*callgraph.Graph)

	factor := b.Canary.SLOFactor
	if factor <= 0 {
		factor = 2
	}

	type probe struct {
		fn   *serverless.Function
		task model.Task
		exp  float64
	}
	var probes []probe
	expectedSum := 0.0
	platCfg := b.Platform.Config()
	for _, spec := range manifest.Functions {
		fn := b.Platform.Function(spec.Name)
		if fn == nil {
			px.Eng.After(0, func() { done(fmt.Errorf("cicd: canary: function %s missing", spec.Name)) })
			return
		}
		id, okc := est.Lookup(spec.Component)
		if !okc {
			px.Eng.After(0, func() { done(fmt.Errorf("cicd: canary: component %s missing", spec.Component)) })
			return
		}
		comp := est.Component(id)
		trueCycles := comp.Cycles * (1 + b.InjectRegression)
		task := model.Task{
			App:              manifest.App,
			Component:        comp.Name,
			Cycles:           trueCycles,
			MemoryBytes:      comp.MemoryBytes,
			ParallelFraction: comp.ParallelFraction,
		}
		expTask := task
		expTask.Cycles = comp.Cycles
		exp := float64(platCfg.ExecTime(&expTask, spec.MemoryBytes))
		probes = append(probes, probe{fn: fn, task: task, exp: exp})
		expectedSum += exp
	}

	total := len(probes) * b.Canary.Invocations
	finished := 0
	execSum := 0.0
	for _, pr := range probes {
		pr := pr
		for i := 0; i < b.Canary.Invocations; i++ {
			task := pr.task
			pr.fn.Execute(&task, func(rep model.ExecReport) {
				execSum += float64(rep.Duration()) - float64(rep.ColdStart)
				finished++
				if finished < total {
					return
				}
				meanExec := execSum / float64(total)
				meanExpected := expectedSum / float64(len(probes))
				result := CanaryResult{
					Invocations: total,
					MeanExecS:   meanExec,
					ExpectedS:   meanExpected,
					Passed:      meanExec <= factor*meanExpected,
				}
				px.Ctx.Set(KeyCanary, result)
				done(nil)
			})
		}
	}
}

// rollback restores the previous manifest when the canary failed; it is a
// fast no-op otherwise. A performed rollback fails the stage with
// ErrRolledBack so the release stage is skipped.
func (b *Build) rollback(px *Exec, done func(error)) {
	cv, ok := px.Ctx.Get(KeyCanary)
	if !ok {
		px.Eng.After(0, func() { done(fmt.Errorf("cicd: rollback without canary result")) })
		return
	}
	if cv.(CanaryResult).Passed {
		px.Eng.After(0, func() { done(nil) })
		return
	}
	px.Eng.After(rollbackTime, func() {
		px.Ctx.Set(KeyRolledBck, true)
		if b.Previous != nil {
			for _, spec := range b.Previous.Functions {
				if _, err := b.Platform.Deploy(serverless.FunctionConfig{
					Name:        spec.Name,
					MemoryBytes: spec.MemoryBytes,
				}); err != nil {
					done(fmt.Errorf("cicd: restoring %s: %w", spec.Name, err))
					return
				}
			}
		}
		done(ErrRolledBack)
	})
}
