package sched

import (
	"fmt"

	"offload/internal/alloc"
	"offload/internal/model"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// FunctionPool lazily deploys one serverless function per application,
// sized by the resource allocator from the first task's predicted demand —
// the deployment decision the paper's serverless-allocation contribution
// is about. Re-allocation happens when the predicted demand drifts past a
// tolerance, mirroring a CI/CD-driven re-deploy.
type FunctionPool struct {
	platform *serverless.Platform
	alloc    *alloc.Allocator
	byApp    map[string]*poolEntry

	// ArrivalRateHint drives the cold-start probability estimate. Zero
	// means "unknown" (pessimistic: every invocation cold).
	ArrivalRateHint float64
	// RedeployTolerance re-allocates when predicted demand moves by more
	// than this factor from the deployed sizing. Zero disables.
	RedeployTolerance float64
	// ProvisionedConcurrency pre-warms this many environments on every
	// function the pool deploys.
	ProvisionedConcurrency int

	redeploys uint64
}

type poolEntry struct {
	fn          *serverless.Function
	sizedCycles float64
	sizedMem    int64
}

// NewFunctionPool returns a pool on the given platform.
func NewFunctionPool(p *serverless.Platform) *FunctionPool {
	return &FunctionPool{
		platform: p,
		alloc:    alloc.New(p.Config()),
		byApp:    make(map[string]*poolEntry),
	}
}

// execBudgetShare is the share of a task's deadline handed to the
// allocator as the execution budget: transfers and queueing consume the
// rest of the slack.
const execBudgetShare = 0.5

// ExecBudget turns a deadline into the execution budget the allocator
// sizes a function for. No deadline (zero) gives no budget.
func ExecBudget(deadline sim.Duration) sim.Duration {
	if deadline <= 0 {
		return 0
	}
	return sim.Duration(float64(deadline) * execBudgetShare)
}

// Platform returns the underlying serverless platform.
func (p *FunctionPool) Platform() *serverless.Platform { return p.platform }

// Allocator returns the pool's resource allocator.
func (p *FunctionPool) Allocator() *alloc.Allocator { return p.alloc }

// Redeploys returns how many drift-triggered re-deployments happened.
func (p *FunctionPool) Redeploys() uint64 { return p.redeploys }

func (p *FunctionPool) request(task *model.Task, predictedCycles float64) alloc.Request {
	req := alloc.Request{
		Cycles:           predictedCycles,
		ParallelFraction: task.ParallelFraction,
		MemoryFloorBytes: task.MemoryBytes,
		ColdStartProb:    1,
		TimeBudget:       ExecBudget(task.Deadline),
	}
	if p.ArrivalRateHint > 0 {
		req.ColdStartProb = alloc.ColdStartProbability(p.ArrivalRateHint, p.platform.Config().KeepAlive)
	}
	return req
}

// For returns the function serving the task's application, deploying or
// re-sizing it as needed.
func (p *FunctionPool) For(task *model.Task, pred Predictor) (*serverless.Function, error) {
	predicted := pred.PredictCycles(task)
	entry, ok := p.byApp[task.App]
	if ok {
		if p.RedeployTolerance > 0 && Drift(predicted, entry.sizedCycles) > p.RedeployTolerance {
			if err := p.deploy(task, predicted, entry); err != nil {
				return nil, err
			}
			p.redeploys++
		}
		return entry.fn, nil
	}
	entry = &poolEntry{}
	if err := p.deploy(task, predicted, entry); err != nil {
		return nil, err
	}
	p.byApp[task.App] = entry
	return entry.fn, nil
}

func (p *FunctionPool) deploy(task *model.Task, predictedCycles float64, entry *poolEntry) error {
	d, err := p.alloc.Choose(p.request(task, predictedCycles))
	if err != nil {
		return fmt.Errorf("sizing function for %s: %w", task.App, err)
	}
	fn, err := p.platform.Deploy(serverless.FunctionConfig{
		Name:                   "app-" + task.App,
		MemoryBytes:            d.MemoryBytes,
		ProvisionedConcurrency: p.ProvisionedConcurrency,
	})
	if err != nil {
		return fmt.Errorf("deploying function for %s: %w", task.App, err)
	}
	entry.fn = fn
	entry.sizedCycles = predictedCycles
	entry.sizedMem = d.MemoryBytes
	return nil
}

// Resize re-deploys the app's function at the given memory size — the
// online memory tuner's lever. memBytes must lie on the platform's ladder
// (the allocator only proposes ladder sizes). Re-deploying discards warm
// containers, exactly as a live configuration change would. No-op when the
// app has no deployed function or the size is unchanged.
func (p *FunctionPool) Resize(app string, memBytes int64) error {
	entry, ok := p.byApp[app]
	if !ok || entry.sizedMem == memBytes {
		return nil
	}
	fn, err := p.platform.Deploy(serverless.FunctionConfig{
		Name:                   "app-" + app,
		MemoryBytes:            memBytes,
		ProvisionedConcurrency: p.ProvisionedConcurrency,
	})
	if err != nil {
		return fmt.Errorf("resizing function for %s: %w", app, err)
	}
	entry.fn = fn
	entry.sizedMem = memBytes
	return nil
}

// Sized returns the deployed memory size for an app, or 0 if not deployed.
func (p *FunctionPool) Sized(app string) int64 {
	if e, ok := p.byApp[app]; ok {
		return e.sizedMem
	}
	return 0
}

// Drift returns |now/then − 1|, the relative change from then to now, or 0
// when then is 0.
func Drift(now, then float64) float64 {
	if then == 0 {
		return 0
	}
	d := now/then - 1
	if d < 0 {
		d = -d
	}
	return d
}
