// Package cicd integrates computational offloading into a modern software
// deployment process — the paper's second originality claim. It provides a
// stage-DAG pipeline engine running on the simulation clock, plus the
// offloading-specific stages: profiling the application, partitioning it,
// allocating serverless resources, deploying the partitions, canary
// verification against an SLO, and automatic rollback.
package cicd

import (
	"fmt"
	"sort"

	"offload/internal/sim"
)

// Context carries artefacts between stages. Stages read what upstream
// stages produced and attach their own outputs under well-known keys.
type Context struct {
	values map[string]any
}

// NewContext returns an empty context.
func NewContext() *Context {
	return &Context{values: make(map[string]any)}
}

// Set stores an artefact.
func (c *Context) Set(key string, v any) { c.values[key] = v }

// Get retrieves an artefact.
func (c *Context) Get(key string) (any, bool) {
	v, ok := c.values[key]
	return v, ok
}

// Exec is what a running stage sees: the engine (for virtual time and
// substrate access) and the shared context.
type Exec struct {
	Eng *sim.Engine
	Ctx *Context
}

// Stage is one pipeline step. Execute starts at the engine's current time
// and must call done exactly once, from the simulation loop.
type Stage struct {
	Name    string
	Needs   []string
	Execute func(px *Exec, done func(error))
}

// RunFor wraps a synchronous body into an Execute that takes d of virtual
// time: the standard shape for build/test/package stages.
func RunFor(d sim.Duration, body func(px *Exec) error) func(*Exec, func(error)) {
	return func(px *Exec, done func(error)) {
		px.Eng.After(d, func() {
			if body == nil {
				done(nil)
				return
			}
			done(body(px))
		})
	}
}

// Pipeline is a DAG of stages.
type Pipeline struct {
	name   string
	stages []Stage
	byName map[string]int
}

// NewPipeline returns an empty pipeline.
func NewPipeline(name string) *Pipeline {
	return &Pipeline{name: name, byName: make(map[string]int)}
}

// Name returns the pipeline name.
func (p *Pipeline) Name() string { return p.name }

// Add appends a stage. Dependencies must already be present, which keeps
// the DAG acyclic by construction.
func (p *Pipeline) Add(s Stage) error {
	if s.Name == "" {
		return fmt.Errorf("cicd: %s: stage with empty name", p.name)
	}
	if _, dup := p.byName[s.Name]; dup {
		return fmt.Errorf("cicd: %s: duplicate stage %q", p.name, s.Name)
	}
	if s.Execute == nil {
		return fmt.Errorf("cicd: %s: stage %q has no Execute", p.name, s.Name)
	}
	for _, need := range s.Needs {
		if _, ok := p.byName[need]; !ok {
			return fmt.Errorf("cicd: %s: stage %q needs unknown stage %q", p.name, s.Name, need)
		}
	}
	p.byName[s.Name] = len(p.stages)
	p.stages = append(p.stages, s)
	return nil
}

// MustAdd is Add that panics on error, for static pipeline definitions.
func (p *Pipeline) MustAdd(s Stage) {
	if err := p.Add(s); err != nil {
		panic(err)
	}
}

// StageResult reports one stage execution.
type StageResult struct {
	Name       string
	Start, End sim.Time
	Err        error
	Skipped    bool // upstream failure prevented the stage from running
}

// Duration returns the stage's wall time; zero for skipped stages.
func (r StageResult) Duration() sim.Duration {
	if r.Skipped {
		return 0
	}
	return r.End.Sub(r.Start)
}

// Report is the outcome of one pipeline run.
type Report struct {
	Pipeline   string
	Start, End sim.Time
	Results    []StageResult
}

// Succeeded reports whether every stage ran without error.
func (r Report) Succeeded() bool {
	for _, res := range r.Results {
		if res.Err != nil || res.Skipped {
			return false
		}
	}
	return true
}

// Duration returns the pipeline's end-to-end wall time.
func (r Report) Duration() sim.Duration { return r.End.Sub(r.Start) }

// Stage returns the named result.
func (r Report) Stage(name string) (StageResult, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res, true
		}
	}
	return StageResult{}, false
}

// Run executes the pipeline on eng, invoking done with the report once
// every stage finished, failed, or was skipped. Independent stages run
// concurrently in virtual time.
func (p *Pipeline) Run(eng *sim.Engine, ctx *Context, done func(Report)) {
	if done == nil {
		panic("cicd: Run with nil done")
	}
	report := Report{Pipeline: p.name, Start: eng.Now()}
	results := make(map[string]*StageResult, len(p.stages))

	pendingDeps := make(map[string]int, len(p.stages))
	dependents := make(map[string][]string)
	for _, s := range p.stages {
		pendingDeps[s.Name] = len(s.Needs)
		for _, need := range s.Needs {
			dependents[need] = append(dependents[need], s.Name)
		}
	}

	remaining := len(p.stages)
	finished := false
	finishRun := func() {
		if finished {
			return
		}
		finished = true
		report.End = eng.Now()
		// Report results in pipeline definition order.
		for _, s := range p.stages {
			report.Results = append(report.Results, *results[s.Name])
		}
		done(report)
	}
	if remaining == 0 {
		eng.After(0, finishRun)
		return
	}

	var completeStage func(name string, err error)
	startStage := func(name string) {
		if _, seen := results[name]; seen {
			return // already skipped via another failed dependency
		}
		s := p.stages[p.byName[name]]
		res := &StageResult{Name: name, Start: eng.Now()}
		results[name] = res
		called := false
		s.Execute(&Exec{Eng: eng, Ctx: ctx}, func(err error) {
			if called {
				panic(fmt.Sprintf("cicd: stage %q completed twice", name))
			}
			called = true
			completeStage(name, err)
		})
	}
	var skipStage func(name string)
	skipStage = func(name string) {
		if _, started := results[name]; started {
			return
		}
		results[name] = &StageResult{Name: name, Start: eng.Now(), End: eng.Now(), Skipped: true}
		remaining--
		for _, dep := range dependents[name] {
			skipStage(dep)
		}
		if remaining == 0 {
			finishRun()
		}
	}
	completeStage = func(name string, err error) {
		res := results[name]
		res.End = eng.Now()
		res.Err = err
		remaining--
		// Deterministic downstream ordering.
		deps := append([]string(nil), dependents[name]...)
		sort.Strings(deps)
		for _, dep := range deps {
			if err != nil {
				skipStage(dep)
				continue
			}
			pendingDeps[dep]--
			if pendingDeps[dep] == 0 {
				startStage(dep)
			}
		}
		if remaining == 0 {
			finishRun()
		}
	}

	// Kick off the roots.
	for _, s := range p.stages {
		if len(s.Needs) == 0 {
			startStage(s.Name)
		}
	}
}
