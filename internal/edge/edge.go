// Package edge models the Edge-Computing comparator: a small fleet of
// servers deployed near the user. Edge wins on proximity (the scheduler
// pairs it with a LAN path) but carries the drawback the paper calls out —
// required infrastructure. That shows up here as a fixed provisioning cost
// that accrues whether or not the cluster is busy, and as finite capacity
// that queues under load.
package edge

import (
	"fmt"

	"offload/internal/fault"
	"offload/internal/model"
	"offload/internal/sim"
)

// ErrTransient is an injected infrastructure failure (a died edge server,
// a dropped request). It wraps model.ErrTransient, so callers classify it
// with model.Transient and should retry.
var ErrTransient = fmt.Errorf("edge: transient execution failure: %w", model.ErrTransient)

// Config describes an edge site.
type Config struct {
	Name    string
	Servers int     // number of machines
	Cores   int     // cores per machine
	CPUHz   float64 // cycles per second per core

	// HourlyCostUSD is the amortised infrastructure cost of the whole site
	// per hour (hardware depreciation + power + space). It accrues with
	// wall time, independent of utilisation.
	HourlyCostUSD float64

	// MemoryPerServer bounds each task's working set. Zero disables.
	MemoryPerServer int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Servers <= 0 || c.Cores <= 0:
		return fmt.Errorf("edge: %s: servers and cores must be positive", c.Name)
	case !(c.CPUHz > 0):
		return fmt.Errorf("edge: %s: CPUHz must be positive", c.Name)
	case !(c.HourlyCostUSD >= 0):
		return fmt.Errorf("edge: %s: negative hourly cost", c.Name)
	case c.MemoryPerServer < 0:
		return fmt.Errorf("edge: %s: negative memory", c.Name)
	}
	return nil
}

// SmallSite returns a typical on-premises micro-datacenter: two 8-core
// 3 GHz machines at roughly $0.60/h amortised ($430/month).
func SmallSite() Config {
	return Config{
		Name:            "edge-small",
		Servers:         2,
		Cores:           8,
		CPUHz:           3 * model.GHz,
		HourlyCostUSD:   0.60,
		MemoryPerServer: 32 * model.GB,
	}
}

// Cluster is a live edge site bound to a simulation engine. It implements
// model.Executor.
type Cluster struct {
	eng   *sim.Engine
	cfg   Config
	cores *sim.Resource
	inj   fault.Injector

	executed uint64
	rejected uint64
	faulted  uint64

	free sim.FreeList[*edgeRun]
}

var _ model.Executor = (*Cluster)(nil)

// New returns a Cluster on eng. It panics on invalid configuration.
func New(eng *sim.Engine, cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cluster{
		eng:   eng,
		cfg:   cfg,
		cores: sim.NewResource(eng, cfg.Name+"/cores", cfg.Servers*cfg.Cores),
	}
}

// Name returns the site name.
func (c *Cluster) Name() string { return c.cfg.Name }

// Placement returns model.PlaceEdge.
func (c *Cluster) Placement() model.Placement { return model.PlaceEdge }

// Config returns the site configuration.
func (c *Cluster) Config() Config { return c.cfg }

// SetFaultInjector installs a fault model on the site. A nil injector
// disables fault injection.
func (c *Cluster) SetFaultInjector(inj fault.Injector) { c.inj = inj }

// FaultInjector returns the installed fault model, or nil.
func (c *Cluster) FaultInjector() fault.Injector { return c.inj }

// ExecTime returns the task's single-core run time on this hardware.
func (c *Cluster) ExecTime(task *model.Task) sim.Duration {
	return sim.Duration(task.Cycles / c.cfg.CPUHz)
}

// Execute runs the task on the first free core; excess load queues FIFO.
// The per-task marginal cost is zero — the infrastructure is already paid
// for — which is precisely the accounting that makes edge look cheap until
// ProvisionedCostUSD is included.
func (c *Cluster) Execute(task *model.Task, done func(model.ExecReport)) {
	if done == nil {
		panic("edge: Execute with nil callback")
	}
	start := c.eng.Now()
	if c.cfg.MemoryPerServer > 0 && task.MemoryBytes > c.cfg.MemoryPerServer {
		c.rejected++
		c.eng.After(0, func() {
			done(model.ExecReport{Start: start, End: c.eng.Now(),
				Err: fmt.Errorf("edge: %s: task needs %d bytes, servers have %d",
					c.cfg.Name, task.MemoryBytes, c.cfg.MemoryPerServer)})
		})
		return
	}
	run := c.free.Get()
	if run == nil {
		run = &edgeRun{c: c}
		run.grantFn, run.finishFn = run.grant, run.finish
	}
	run.task, run.start, run.done = task, start, done
	c.cores.Acquire(run.grantFn)
}

// edgeRun is one Execute holding or waiting for a core, recycled through
// the cluster's free list with its callbacks bound once.
type edgeRun struct {
	c       *Cluster
	task    *model.Task
	start   sim.Time
	granted sim.Time
	crash   bool
	done    func(model.ExecReport)

	grantFn, finishFn func()
	sim.Link[*edgeRun]
}

func (run *edgeRun) grant() {
	c := run.c
	run.granted = c.eng.Now()
	// A crash reports a transient error once its cut-short run ends.
	dec := fault.Decide(c.inj, run.granted)
	exec := dec.Apply(c.ExecTime(run.task))
	run.crash = dec.Crash
	c.eng.After(exec, run.finishFn)
}

// finish releases the core, returns the record to the free list and only
// then calls done.
func (run *edgeRun) finish() {
	c := run.c
	c.cores.Release()
	rep := model.ExecReport{
		Start:     run.start,
		End:       c.eng.Now(),
		QueueWait: run.granted.Sub(run.start),
	}
	if run.crash {
		c.faulted++
		rep.Err = ErrTransient
	} else {
		c.executed++
	}
	done := run.done
	run.task, run.done = nil, nil
	c.free.Put(run)
	done(rep)
}

// ProvisionedCostUSD returns the infrastructure cost accrued from the
// start of the simulation to now.
func (c *Cluster) ProvisionedCostUSD() float64 {
	return c.cfg.HourlyCostUSD * float64(c.eng.Now()) / 3600
}

// Utilization returns the time-averaged core utilisation.
func (c *Cluster) Utilization() float64 { return c.cores.Utilization() }

// BusyCores returns cores executing a task right now.
func (c *Cluster) BusyCores() int { return c.cores.InUse() }

// Executed returns how many tasks completed on the site.
func (c *Cluster) Executed() uint64 { return c.executed }

// Rejected returns how many tasks were refused (memory bound).
func (c *Cluster) Rejected() uint64 { return c.rejected }

// Faulted returns how many tasks died to injected faults.
func (c *Cluster) Faulted() uint64 { return c.faulted }

// QueueLen returns tasks waiting for a core.
func (c *Cluster) QueueLen() int { return c.cores.QueueLen() }
