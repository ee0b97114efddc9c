// Package cloudvm models the always-on IaaS comparator: a fleet of cloud
// virtual machines billed by the hour whether busy or idle. It exists for
// the cost-crossover analysis — serverless wins at low or bursty
// utilisation, reserved VMs win under sustained load — and as an optional
// execution target without cold starts.
//
// An optional autoscaler grows and shrinks the fleet between Min and Max
// instances based on demand, with a boot delay, which is the realistic
// middle ground between the two billing extremes.
package cloudvm

import (
	"fmt"

	"offload/internal/fault"
	"offload/internal/model"
	"offload/internal/sim"
)

// ErrTransient is an injected infrastructure failure (a preempted or
// crashed instance). It wraps model.ErrTransient, so callers classify it
// with model.Transient and should retry.
var ErrTransient = fmt.Errorf("cloudvm: transient execution failure: %w", model.ErrTransient)

// Config describes a VM fleet.
type Config struct {
	Name  string
	Cores int     // cores per instance
	CPUHz float64 // cycles per second per core

	HourlyCostUSD float64 // price of one instance per hour

	// MinInstances are always on. If MaxInstances > MinInstances the fleet
	// autoscales up to that bound when the queue is non-empty.
	MinInstances int
	MaxInstances int

	// BootDelay is how long a newly requested instance takes to join.
	BootDelay sim.Duration

	// IdleShutdownAfter retires a scaled-up instance that has been idle
	// this long. Zero keeps scaled-up instances forever.
	IdleShutdownAfter sim.Duration
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0 || !(c.CPUHz > 0):
		return fmt.Errorf("cloudvm: %s: cores and CPUHz must be positive", c.Name)
	case !(c.HourlyCostUSD >= 0):
		return fmt.Errorf("cloudvm: %s: negative hourly cost", c.Name)
	case c.MinInstances < 0:
		return fmt.Errorf("cloudvm: %s: negative min instances", c.Name)
	case c.MaxInstances < c.MinInstances:
		return fmt.Errorf("cloudvm: %s: max instances below min", c.Name)
	case c.MaxInstances == 0:
		return fmt.Errorf("cloudvm: %s: fleet bound is zero", c.Name)
	case !(c.BootDelay >= 0 && c.IdleShutdownAfter >= 0):
		return fmt.Errorf("cloudvm: %s: negative delay", c.Name)
	}
	return nil
}

// C5Large returns a fixed single general-purpose instance: 2 cores at
// 3 GHz, $0.085/hour.
func C5Large() Config {
	return Config{
		Name:          "c5-large",
		Cores:         2,
		CPUHz:         3 * model.GHz,
		HourlyCostUSD: 0.085,
		MinInstances:  1,
		MaxInstances:  1,
	}
}

// Autoscaled returns an elastic fleet of up to eight such instances with a
// 60-second boot delay and 5-minute idle shutdown.
func Autoscaled() Config {
	cfg := C5Large()
	cfg.Name = "c5-autoscaled"
	cfg.MinInstances = 1
	cfg.MaxInstances = 8
	cfg.BootDelay = 60
	cfg.IdleShutdownAfter = 300
	return cfg
}

// Fleet is a live VM fleet bound to a simulation engine. It implements
// model.Executor.
type Fleet struct {
	eng *sim.Engine
	cfg Config
	inj fault.Injector

	instances []*instance
	waiting   []*pending

	booting       int
	executed      uint64
	faulted       uint64
	instanceHours float64 // accrued at retirement; live instances added on demand
}

type instance struct {
	started   sim.Time
	busy      int
	retired   bool
	retiredAt sim.Time
	idleEv    sim.EventRef
	scaledUp  bool // true if beyond MinInstances (eligible for shutdown)
}

type pending struct {
	task *model.Task
	done func(model.ExecReport)
	at   sim.Time
}

var _ model.Executor = (*Fleet)(nil)

// New returns a Fleet on eng with MinInstances already booted. It panics on
// invalid configuration.
func New(eng *sim.Engine, cfg Config) *Fleet {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := &Fleet{eng: eng, cfg: cfg}
	for i := 0; i < cfg.MinInstances; i++ {
		f.instances = append(f.instances, &instance{started: eng.Now()})
	}
	return f
}

// Name returns the fleet name.
func (f *Fleet) Name() string { return f.cfg.Name }

// Placement returns model.PlaceVM.
func (f *Fleet) Placement() model.Placement { return model.PlaceVM }

// Config returns the fleet configuration.
func (f *Fleet) Config() Config { return f.cfg }

// SetFaultInjector installs a fault model on the fleet. A nil injector
// disables fault injection.
func (f *Fleet) SetFaultInjector(inj fault.Injector) { f.inj = inj }

// FaultInjector returns the installed fault model, or nil.
func (f *Fleet) FaultInjector() fault.Injector { return f.inj }

// ExecTime returns the task's single-core run time on this hardware.
func (f *Fleet) ExecTime(task *model.Task) sim.Duration {
	return sim.Duration(task.Cycles / f.cfg.CPUHz)
}

// Instances returns the number of live (non-retired) instances.
func (f *Fleet) Instances() int {
	n := 0
	for _, in := range f.instances {
		if !in.retired {
			n++
		}
	}
	return n
}

// BusyCores returns cores executing a task right now across live
// instances.
func (f *Fleet) BusyCores() int {
	n := 0
	for _, in := range f.instances {
		if !in.retired {
			n += in.busy
		}
	}
	return n
}

// Execute runs the task on a free core; if the fleet is saturated and can
// scale, a new instance boots. Per-task marginal cost is zero; the fleet
// accrues instance-hours instead.
func (f *Fleet) Execute(task *model.Task, done func(model.ExecReport)) {
	if done == nil {
		panic("cloudvm: Execute with nil callback")
	}
	p := &pending{task: task, done: done, at: f.eng.Now()}
	if in := f.freeInstance(); in != nil {
		f.runOn(in, p)
		return
	}
	f.waiting = append(f.waiting, p)
	f.maybeScaleUp()
}

func (f *Fleet) freeInstance() *instance {
	for _, in := range f.instances {
		if !in.retired && in.busy < f.cfg.Cores {
			return in
		}
	}
	return nil
}

func (f *Fleet) maybeScaleUp() {
	live := f.Instances() + f.booting
	if live >= f.cfg.MaxInstances || len(f.waiting) == 0 {
		return
	}
	f.booting++
	f.eng.After(f.cfg.BootDelay, func() {
		f.booting--
		in := &instance{started: f.eng.Now(), scaledUp: true}
		f.instances = append(f.instances, in)
		f.drainTo(in)
		f.armIdleShutdown(in)
		// More queued work than one instance's cores? Keep scaling.
		f.maybeScaleUp()
	})
}

func (f *Fleet) runOn(in *instance, p *pending) {
	in.busy++
	f.eng.Cancel(in.idleEv)
	in.idleEv = sim.EventRef{}
	start := p.at
	// A crash reports a transient error once its cut-short run ends.
	dec := fault.Decide(f.inj, f.eng.Now())
	exec := dec.Apply(f.ExecTime(p.task))
	f.eng.After(exec, func() {
		in.busy--
		rep := model.ExecReport{
			Start:     start,
			End:       f.eng.Now(),
			QueueWait: f.eng.Now().Sub(start) - exec,
		}
		if dec.Crash {
			f.faulted++
			rep.Err = ErrTransient
		} else {
			f.executed++
		}
		p.done(rep)
		f.drainTo(in)
		f.armIdleShutdown(in)
	})
}

func (f *Fleet) drainTo(in *instance) {
	for !in.retired && in.busy < f.cfg.Cores && len(f.waiting) > 0 {
		p := f.waiting[0]
		f.waiting[0] = nil // a drained queue must not pin the task or its callback
		f.waiting = f.waiting[1:]
		f.runOn(in, p)
	}
}

func (f *Fleet) armIdleShutdown(in *instance) {
	if !in.scaledUp || in.retired || in.busy > 0 || f.cfg.IdleShutdownAfter == 0 {
		return
	}
	f.eng.Cancel(in.idleEv)
	in.idleEv = f.eng.After(f.cfg.IdleShutdownAfter, func() {
		if in.busy == 0 && !in.retired {
			in.retired = true
			in.retiredAt = f.eng.Now()
			f.instanceHours += float64(f.eng.Now().Sub(in.started)) / 3600
		}
	})
}

// AccruedCostUSD returns the money spent on instance-hours from the start
// of the simulation to now, including live instances.
func (f *Fleet) AccruedCostUSD() float64 {
	hours := f.instanceHours
	for _, in := range f.instances {
		if !in.retired {
			hours += float64(f.eng.Now().Sub(in.started)) / 3600
		}
	}
	return hours * f.cfg.HourlyCostUSD
}

// Executed returns how many tasks completed on the fleet.
func (f *Fleet) Executed() uint64 { return f.executed }

// Faulted returns how many tasks died to injected faults.
func (f *Fleet) Faulted() uint64 { return f.faulted }

// QueueLen returns tasks waiting for a core.
func (f *Fleet) QueueLen() int { return len(f.waiting) }
