// Package device models the User Equipment (UE): a battery-powered device
// with a modest CPU and a radio. It is both a compute substrate (local
// execution implements model.Executor) and the energy accountant for the
// radio time that offloading consumes.
//
// The energy model follows the standard mobile-offloading formulation:
// computing drains ActivePower for the duration of execution, transmitting
// and receiving drain TxPower/RxPower for the duration of the transfer, and
// offloading pays radio energy instead of compute energy — which is the
// break-even the E5 experiment measures.
package device

import (
	"errors"
	"fmt"

	"offload/internal/model"
	"offload/internal/sim"
)

// ErrBatteryDead is reported when an execution or transfer is attempted on
// a device whose battery has been exhausted.
var ErrBatteryDead = errors.New("device: battery exhausted")

// Config describes a device.
type Config struct {
	Name  string
	CPUHz float64 // cycles per second, per core
	Cores int

	ActivePowerW float64 // CPU power while computing
	IdlePowerW   float64 // informational; not drained automatically
	TxPowerW     float64 // radio power while transmitting
	RxPowerW     float64 // radio power while receiving

	// Radio tail energy: after a transfer ends, cellular radios hold a
	// high-power state (LTE DRX tail) for RadioTailS seconds at
	// RadioTailPowerW before dropping to idle. The tail is charged once
	// per transfer unless the next transfer starts inside the window (the
	// device tracks the window and only bills the incremental part).
	// Zeros disable the effect — appropriate for WiFi.
	RadioTailS      float64
	RadioTailPowerW float64

	// BatteryJ is the usable battery capacity in joules. Zero means the
	// device is mains powered (energy is tracked but never exhausted).
	BatteryJ float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case !(c.CPUHz > 0):
		return fmt.Errorf("device: %s: CPUHz must be positive", c.Name)
	case c.Cores <= 0:
		return fmt.Errorf("device: %s: Cores must be positive", c.Name)
	case !(c.ActivePowerW >= 0 && c.IdlePowerW >= 0 && c.TxPowerW >= 0 && c.RxPowerW >= 0):
		return fmt.Errorf("device: %s: negative power", c.Name)
	case !(c.BatteryJ >= 0):
		return fmt.Errorf("device: %s: negative battery", c.Name)
	case !(c.RadioTailS >= 0 && c.RadioTailPowerW >= 0):
		return fmt.Errorf("device: %s: negative radio tail", c.Name)
	}
	return nil
}

// Smartphone returns a mid-range handset: 4×2 GHz, ~2 W active CPU power,
// LTE-class radio power, 12 Wh usable battery.
func Smartphone() Config {
	return Config{
		Name:         "smartphone",
		CPUHz:        2 * model.GHz,
		Cores:        4,
		ActivePowerW: 2.0,
		IdlePowerW:   0.05,
		TxPowerW:     1.2,
		RxPowerW:     0.9,
		BatteryJ:     12 * 3600, // 12 Wh
	}
}

// SmartphoneLTE returns the same handset on a cellular connection, which
// adds the LTE DRX tail: ~2 s of ~1 W radio power after every transfer.
// Radio energy for short chatty transfers is dominated by this tail,
// which shifts the offloading break-even noticeably.
func SmartphoneLTE() Config {
	cfg := Smartphone()
	cfg.Name = "smartphone-lte"
	cfg.RadioTailS = 2.0
	cfg.RadioTailPowerW = 1.0
	return cfg
}

// IoTSensor returns a constrained sensor node: 1×200 MHz, milliwatt-class
// power, small battery.
func IoTSensor() Config {
	return Config{
		Name:         "iot-sensor",
		CPUHz:        200 * model.MHz,
		Cores:        1,
		ActivePowerW: 0.4,
		IdlePowerW:   0.002,
		TxPowerW:     0.7,
		RxPowerW:     0.3,
		BatteryJ:     2 * 3600, // 2 Wh
	}
}

// Laptop returns a mains-powered developer laptop: 8×3 GHz, no battery
// constraint.
func Laptop() Config {
	return Config{
		Name:         "laptop",
		CPUHz:        3 * model.GHz,
		Cores:        8,
		ActivePowerW: 25,
		IdlePowerW:   3,
		TxPowerW:     2,
		RxPowerW:     1.5,
	}
}

// Device is a live UE bound to a simulation engine.
type Device struct {
	eng *sim.Engine
	cfg Config
	cpu *sim.Resource

	drainedJ  float64 // total energy drawn so far
	dead      bool
	executed  uint64
	tailUntil sim.Time // end of the currently billed radio tail

	free sim.FreeList[*localRun]
}

var _ model.Executor = (*Device)(nil)

// New returns a Device on eng. It panics on invalid configuration.
func New(eng *sim.Engine, cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Device{
		eng: eng,
		cfg: cfg,
		cpu: sim.NewResource(eng, cfg.Name+"/cpu", cfg.Cores),
	}
}

// Name returns the device name.
func (d *Device) Name() string { return d.cfg.Name }

// Placement returns model.PlaceLocal.
func (d *Device) Placement() model.Placement { return model.PlaceLocal }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// ExecTime returns how long the task's computation takes on one core at
// full frequency.
func (d *Device) ExecTime(task *model.Task) sim.Duration {
	return sim.Duration(task.Cycles / d.cfg.CPUHz)
}

// Execute runs the task on the device CPU at full frequency. The report
// carries the device's compute energy as a cost of zero dollars; energy is
// also accumulated on the device battery.
func (d *Device) Execute(task *model.Task, done func(model.ExecReport)) {
	d.ExecuteScaled(task, 1, done)
}

// ExecuteScaled runs the task at a per-task DVFS scale in (0, 1]; DVFS is
// chosen per task, never device-wide. Power scales with the square of
// frequency (a simplification of the cubic dynamic-power law that keeps
// the energy ordering realistic), so lower scales stretch execution time
// by 1/scale and cut energy by roughly the same factor (P ∝ f², t ∝ 1/f ⇒
// E ∝ f) — the lever a delay-tolerant local policy can pull instead of
// offloading.
func (d *Device) ExecuteScaled(task *model.Task, scale float64, done func(model.ExecReport)) {
	if done == nil {
		panic("device: Execute with nil callback")
	}
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("device: per-task CPU scale %g outside (0,1]", scale))
	}
	start := d.eng.Now()
	if d.dead {
		d.eng.After(0, func() {
			done(model.ExecReport{Start: start, End: start, Err: ErrBatteryDead})
		})
		return
	}
	run := d.free.Get()
	if run == nil {
		run = &localRun{d: d}
		run.grantFn, run.finishFn = run.grant, run.finish
	}
	run.task, run.scale, run.start, run.done = task, scale, start, done
	d.cpu.Acquire(run.grantFn)
}

// localRun is one ExecuteScaled holding or waiting for a core, recycled
// through the device's free list with its callbacks bound once.
type localRun struct {
	d       *Device
	task    *model.Task
	scale   float64
	start   sim.Time
	granted sim.Time
	dur     sim.Duration
	done    func(model.ExecReport)

	grantFn, finishFn func()
	sim.Link[*localRun]
}

func (run *localRun) grant() {
	d := run.d
	run.granted = d.eng.Now()
	run.dur = sim.Duration(run.task.Cycles / (d.cfg.CPUHz * run.scale))
	d.eng.After(run.dur, run.finishFn)
}

// finish releases the core and drains the energy, returns the record to
// the free list and only then calls done.
func (run *localRun) finish() {
	d := run.d
	d.cpu.Release()
	d.executed++
	// Dynamic power ~ f^2 at fixed voltage-scaling policy.
	powerW := d.cfg.ActivePowerW * run.scale * run.scale
	d.drain(powerW * float64(run.dur))
	rep := model.ExecReport{
		Start:     run.start,
		End:       d.eng.Now(),
		QueueWait: run.granted.Sub(run.start),
	}
	done := run.done
	run.task, run.done = nil, nil
	d.free.Put(run)
	done(rep)
}

// RadioEnergyMilliJ returns the device energy (mJ) consumed by a transfer
// of the given wall duration in the given direction — including the
// radio's post-transfer tail — and drains it from the battery.
//
// Tail accounting: the radio stays hot for RadioTailS after a transfer
// ends. If a new transfer starts while a previous tail is still running,
// only the tail extension beyond the already-billed window is charged, so
// back-to-back transfers pay roughly one tail between them, as on real
// hardware.
func (d *Device) RadioEnergyMilliJ(dur sim.Duration, uplink bool) float64 {
	powerW := d.cfg.RxPowerW
	if uplink {
		powerW = d.cfg.TxPowerW
	}
	j := powerW * float64(dur)
	if d.cfg.RadioTailS > 0 && d.cfg.RadioTailPowerW > 0 {
		now := d.eng.Now()
		tailEnd := now.Add(sim.Duration(d.cfg.RadioTailS))
		billedFrom := now
		if d.tailUntil > billedFrom {
			billedFrom = d.tailUntil
		}
		if tailEnd > billedFrom {
			j += d.cfg.RadioTailPowerW * float64(tailEnd.Sub(billedFrom))
		}
		if tailEnd > d.tailUntil {
			d.tailUntil = tailEnd
		}
	}
	d.drain(j)
	return j * 1000
}

// ComputeEnergyMilliJ returns the energy (mJ) that executing the task
// locally at full frequency would consume, without draining it. Planners
// use this estimate.
func (d *Device) ComputeEnergyMilliJ(task *model.Task) float64 {
	return d.cfg.ActivePowerW * float64(d.ExecTime(task)) * 1000
}

func (d *Device) drain(joules float64) {
	d.drainedJ += joules
	if d.cfg.BatteryJ > 0 && d.drainedJ >= d.cfg.BatteryJ {
		d.dead = true
	}
}

// DrainedJ returns the total energy drawn since the start of the run.
func (d *Device) DrainedJ() float64 { return d.drainedJ }

// BatteryRemainingJ returns the remaining battery energy, or +Inf-like
// large values are avoided: mains-powered devices return -1.
func (d *Device) BatteryRemainingJ() float64 {
	if d.cfg.BatteryJ == 0 {
		return -1
	}
	rem := d.cfg.BatteryJ - d.drainedJ
	if rem < 0 {
		return 0
	}
	return rem
}

// Dead reports whether the battery is exhausted.
func (d *Device) Dead() bool { return d.dead }

// Executed returns how many tasks completed locally.
func (d *Device) Executed() uint64 { return d.executed }

// CPUUtilization returns the time-averaged CPU utilisation.
func (d *Device) CPUUtilization() float64 { return d.cpu.Utilization() }

// Backlog returns the number of tasks running or waiting on the CPU,
// which schedulers use to estimate local queueing delay.
func (d *Device) Backlog() int { return d.cpu.InUse() + d.cpu.QueueLen() }
