// Package serverless simulates a Function-as-a-Service platform with the
// characteristics that drive the paper's resource-allocation problem:
//
//   - CPU proportional to the configured memory size (as on AWS Lambda,
//     where 1769 MB buys one full vCPU), with Amdahl-limited speedup above
//     one vCPU for mostly-serial code;
//   - cold starts, mitigated by a keep-alive container pool;
//   - per-request plus GB-second billing with a billing granularity;
//   - an account-level concurrency limit with asynchronous queueing.
//
// The simulator reproduces the time/cost response surface an allocator
// optimises over; absolute prices follow a Lambda-like public price sheet.
package serverless

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"offload/internal/fault"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sim"
)

// Errors reported in ExecReport.Err.
var (
	// ErrOutOfMemory is reported when a task's working set exceeds the
	// function's configured memory.
	ErrOutOfMemory = errors.New("serverless: task exceeds function memory")
	// ErrTimedOut is reported when execution exceeds the function timeout.
	ErrTimedOut = errors.New("serverless: execution exceeded function timeout")
	// ErrTransient is an injected infrastructure failure (a crashed
	// container, a dropped invocation). It wraps model.ErrTransient, so
	// callers classify it with model.Transient and should retry.
	ErrTransient = fmt.Errorf("serverless: transient invocation failure: %w", model.ErrTransient)
)

// PriceTable describes the platform's billing model, optionally with a
// diurnal off-peak discount — the spot-market-like lever that makes
// delay-tolerant scheduling pay (experiment E11).
type PriceTable struct {
	PerRequestUSD  float64      // flat charge per invocation
	PerGBSecondUSD float64      // charge per GB of memory per billed second
	Granularity    sim.Duration // billed duration is rounded up to this
	MinBilled      sim.Duration // floor on the billed duration

	// Off-peak pricing: between OffPeakStartHour and OffPeakEndHour on the
	// virtual 24 h clock the GB-second rate is multiplied by
	// OffPeakFactor. The window may wrap midnight (start 22, end 6).
	// A zero factor disables the schedule.
	OffPeakFactor    float64
	OffPeakStartHour float64
	OffPeakEndHour   float64

	// ProvisionedGBSecondUSD is the capacity fee for provisioned
	// concurrency, charged per GB per wall-clock second whether or not the
	// warm capacity serves traffic.
	ProvisionedGBSecondUSD float64
}

// Validate reports whether the price table is usable.
func (p PriceTable) Validate() error {
	switch {
	case !(p.PerRequestUSD >= 0 && p.PerGBSecondUSD >= 0): // NaN fails too
		return fmt.Errorf("serverless: negative price")
	case !(p.Granularity > 0):
		return fmt.Errorf("serverless: billing granularity must be positive")
	case !(p.MinBilled >= 0):
		return fmt.Errorf("serverless: negative minimum billed duration")
	case !(p.OffPeakFactor >= 0):
		return fmt.Errorf("serverless: negative off-peak factor")
	case p.OffPeakFactor > 0 && (p.OffPeakStartHour < 0 || p.OffPeakStartHour >= 24 ||
		p.OffPeakEndHour < 0 || p.OffPeakEndHour >= 24):
		return fmt.Errorf("serverless: off-peak hours outside [0, 24)")
	case p.OffPeakFactor > 0 && p.OffPeakStartHour == p.OffPeakEndHour:
		return fmt.Errorf("serverless: empty off-peak window")
	case !(p.ProvisionedGBSecondUSD >= 0):
		return fmt.Errorf("serverless: negative provisioned-capacity price")
	}
	return nil
}

// HasOffPeak reports whether a diurnal discount is configured.
func (p PriceTable) HasOffPeak() bool {
	return p.OffPeakFactor > 0 && p.OffPeakFactor != 1
}

// InOffPeak reports whether the virtual instant falls in the discount
// window.
func (p PriceTable) InOffPeak(at sim.Time) bool {
	if !p.HasOffPeak() {
		return false
	}
	hour := math.Mod(float64(at)/3600, 24)
	if hour < 0 {
		hour += 24
	}
	if p.OffPeakStartHour < p.OffPeakEndHour {
		return hour >= p.OffPeakStartHour && hour < p.OffPeakEndHour
	}
	return hour >= p.OffPeakStartHour || hour < p.OffPeakEndHour
}

// NextOffPeakStart returns the earliest instant at or after `at` that is
// inside the discount window. Without a schedule it returns `at`.
func (p PriceTable) NextOffPeakStart(at sim.Time) sim.Time {
	if !p.HasOffPeak() || p.InOffPeak(at) {
		return at
	}
	hour := math.Mod(float64(at)/3600, 24)
	wait := p.OffPeakStartHour - hour
	if wait < 0 {
		wait += 24
	}
	// Nudge a few milliseconds into the window so floating-point error at
	// large virtual times cannot land the result just before the boundary.
	wait += 1e-6
	return at.Add(sim.Duration(wait * 3600))
}

// Bill returns the peak-rate charge for one invocation of a function with
// memBytes of memory that ran for d. Planners use it as the conservative
// (worst-case) price; BillAt applies the time-of-day schedule.
func (p PriceTable) Bill(memBytes int64, d sim.Duration) float64 {
	return p.BillGB(float64(memBytes)/float64(model.GB), d, 1)
}

// BillAt returns the charge with the time-of-day discount that applies at
// the given instant (invocations are priced by their start time).
func (p PriceTable) BillAt(memBytes int64, d sim.Duration, at sim.Time) float64 {
	factor := 1.0
	if p.InOffPeak(at) {
		factor = p.OffPeakFactor
	}
	return p.BillGB(float64(memBytes)/float64(model.GB), d, factor)
}

// BillGB returns the charge for one invocation of a function with gb GB of
// memory that ran for d, at factor times the peak rate. Bill and BillAt
// are BillGB on the size in GB; callers that price one size many times
// convert it once. The pointer receiver spares such a caller a copy of the
// table on every call.
func (p *PriceTable) BillGB(gb float64, d sim.Duration, factor float64) float64 {
	billed := d
	if billed < p.MinBilled {
		billed = p.MinBilled
	}
	units := math.Ceil(float64(billed) / float64(p.Granularity))
	billedSec := units * float64(p.Granularity)
	return p.PerRequestUSD + gb*billedSec*p.PerGBSecondUSD*factor
}

// ColdStartModel describes environment-provisioning delay: lognormal with
// the given median and dispersion, plus a per-MB code/runtime factor.
type ColdStartModel struct {
	MedianSec  float64 // median cold start in seconds
	Sigma      float64 // lognormal dispersion
	PerGBExtra float64 // additional seconds per GB of function memory
}

// Validate reports whether the model is usable.
func (c ColdStartModel) Validate() error {
	if !(c.MedianSec >= 0 && c.Sigma >= 0 && c.PerGBExtra >= 0) { // NaN fails too
		return fmt.Errorf("serverless: negative cold-start parameter")
	}
	return nil
}

// sample draws one cold-start duration for a function with memBytes memory.
func (c ColdStartModel) sample(src *rng.Source, memBytes int64) sim.Duration {
	if c.MedianSec == 0 {
		return 0
	}
	base := src.LogNormal(math.Log(c.MedianSec), c.Sigma)
	extra := c.PerGBExtra * float64(memBytes) / float64(model.GB)
	return sim.Duration(base + extra)
}

// Config describes a serverless platform.
type Config struct {
	Name string

	// MinMemory, MaxMemory and MemoryStep define the allowed memory ladder.
	MinMemory  int64
	MaxMemory  int64
	MemoryStep int64

	// BaselineHz is the cycle rate of one full vCPU. FullShareBytes is the
	// memory size that buys exactly one vCPU; CPU share scales linearly
	// with memory and is capped at MaxShare vCPUs.
	BaselineHz     float64
	FullShareBytes int64
	MaxShare       float64

	ColdStart ColdStartModel
	KeepAlive sim.Duration // idle-container lifetime

	// ConcurrencyLimit is the account-wide cap on simultaneously running
	// containers. Excess asynchronous invocations queue FIFO.
	ConcurrencyLimit int

	// DefaultTimeout aborts executions that run longer. Zero disables.
	DefaultTimeout sim.Duration

	// Memory pressure: when a task's working set fills more than
	// 1/PressureKneeRatio of the function's memory, execution slows down
	// quadratically (GC thrash, paging), up to 1+PressurePenalty at a
	// just-fitting working set. This is what makes the cost-vs-memory
	// curve U-shaped and gives the allocator a real optimum to find.
	// PressureKneeRatio <= 1 or PressurePenalty = 0 disables the effect.
	PressureKneeRatio float64
	PressurePenalty   float64

	// FailureRate is the probability an invocation dies with ErrTransient
	// partway through execution (still billed for the time consumed, as
	// real platforms do). Zero disables failure injection.
	FailureRate float64

	Price PriceTable
}

// maxLadderRungs bounds the memory ladder's length, so that a sweep over
// it (alloc.Sweep) stays small: 1 MB steps over 16 GB, two orders of
// magnitude above LambdaLike's 159 rungs and GCFLike's 32.
const maxLadderRungs = 1 << 14

// Validate reports whether the configuration is usable. The float tests
// are written !(x > 0) so that NaN fails them.
func (c Config) Validate() error {
	switch {
	case c.MinMemory <= 0 || c.MaxMemory < c.MinMemory:
		return fmt.Errorf("serverless: %s: bad memory range [%d, %d]", c.Name, c.MinMemory, c.MaxMemory)
	case c.MemoryStep <= 0:
		return fmt.Errorf("serverless: %s: memory step must be positive", c.Name)
	case c.LadderLen() > maxLadderRungs:
		return fmt.Errorf("serverless: %s: memory ladder of %d rungs exceeds %d", c.Name, c.LadderLen(), maxLadderRungs)
	case !(c.BaselineHz > 0) || math.IsInf(c.BaselineHz, 1):
		return fmt.Errorf("serverless: %s: baseline CPU %g not finite and positive", c.Name, c.BaselineHz)
	case c.FullShareBytes <= 0:
		return fmt.Errorf("serverless: %s: full-share memory must be positive", c.Name)
	case !(c.MaxShare > 0) || math.IsInf(c.MaxShare, 1):
		return fmt.Errorf("serverless: %s: max CPU share %g not finite and positive", c.Name, c.MaxShare)
	case c.ConcurrencyLimit <= 0:
		return fmt.Errorf("serverless: %s: concurrency limit must be positive", c.Name)
	case !(c.KeepAlive >= 0):
		return fmt.Errorf("serverless: %s: negative keep-alive", c.Name)
	case !(c.DefaultTimeout >= 0):
		return fmt.Errorf("serverless: %s: negative timeout", c.Name)
	case !(c.PressurePenalty >= 0):
		return fmt.Errorf("serverless: %s: negative pressure penalty", c.Name)
	case math.IsNaN(c.PressureKneeRatio):
		return fmt.Errorf("serverless: %s: NaN pressure knee", c.Name)
	case !(c.FailureRate >= 0 && c.FailureRate < 1):
		return fmt.Errorf("serverless: %s: failure rate %g outside [0,1)", c.Name, c.FailureRate)
	}
	if err := c.Price.Validate(); err != nil {
		return err
	}
	return c.ColdStart.Validate()
}

// LambdaLike returns a configuration calibrated to the published
// characteristics of AWS Lambda (2022-era): 128 MB–10 GB in 64 MB steps,
// one vCPU at 1769 MB (up to 6), ~250 ms median cold start, $0.20 per
// million requests and $0.0000166667 per GB-second billed at 1 ms
// granularity, 1000 concurrent executions.
func LambdaLike() Config {
	return Config{
		Name:              "lambda-like",
		MinMemory:         128 * model.MB,
		MaxMemory:         10240 * model.MB,
		MemoryStep:        64 * model.MB,
		BaselineHz:        2.5 * model.GHz,
		FullShareBytes:    1769 * model.MB,
		MaxShare:          6,
		ColdStart:         ColdStartModel{MedianSec: 0.25, Sigma: 0.35, PerGBExtra: 0.05},
		KeepAlive:         sim.Duration(7 * 60), // ~7 minutes, within reported 5–15
		ConcurrencyLimit:  1000,
		DefaultTimeout:    sim.Duration(15 * 60),
		PressureKneeRatio: 2.0,
		PressurePenalty:   1.5,
		Price: PriceTable{
			PerRequestUSD:          0.20 / 1e6,
			PerGBSecondUSD:         0.0000166667,
			Granularity:            0.001,
			MinBilled:              0.001,
			ProvisionedGBSecondUSD: 0.0000041667,
		},
	}
}

// GCFLike returns a configuration in the style of first-generation Google
// Cloud Functions: a coarser memory ladder (fixed tiers approximated as
// 256 MB steps), a full vCPU at 2048 MB, slower and more variable cold
// starts, a generous 15-minute keep-alive — and, crucially, **100 ms
// billing granularity**, which penalises sub-100 ms invocations that the
// Lambda-like 1 ms granularity bills almost nothing for (experiment E16).
func GCFLike() Config {
	return Config{
		Name:              "gcf-like",
		MinMemory:         256 * model.MB,
		MaxMemory:         8192 * model.MB,
		MemoryStep:        256 * model.MB,
		BaselineHz:        2.4 * model.GHz,
		FullShareBytes:    2048 * model.MB,
		MaxShare:          4,
		ColdStart:         ColdStartModel{MedianSec: 0.5, Sigma: 0.5, PerGBExtra: 0.1},
		KeepAlive:         sim.Duration(15 * 60),
		ConcurrencyLimit:  1000,
		DefaultTimeout:    sim.Duration(9 * 60),
		PressureKneeRatio: 2.0,
		PressurePenalty:   1.5,
		Price: PriceTable{
			PerRequestUSD:          0.40 / 1e6,
			PerGBSecondUSD:         0.0000165,
			Granularity:            0.1, // 100 ms
			MinBilled:              0.1,
			ProvisionedGBSecondUSD: 0.0000060,
		},
	}
}

// MemoryLadder returns the allowed memory sizes in ascending order.
func (c Config) MemoryLadder() []int64 {
	ladder := make([]int64, c.LadderLen())
	for i := range ladder {
		ladder[i] = c.Rung(i)
	}
	return ladder
}

// LadderLen returns the number of sizes on the memory ladder. It counts
// rungs instead of stepping through them, so a ladder that ends within one
// step of math.MaxInt64 cannot overflow.
func (c *Config) LadderLen() int {
	if c.MemoryStep <= 0 || c.MaxMemory < c.MinMemory {
		return 0
	}
	return int((c.MaxMemory-c.MinMemory)/c.MemoryStep) + 1
}

// Rung returns the i-th size on the memory ladder, MinMemory + i·MemoryStep.
func (c *Config) Rung(i int) int64 {
	return c.MinMemory + int64(i)*c.MemoryStep
}

// CPUShare returns the number of vCPUs a function with memBytes receives.
func (c *Config) CPUShare(memBytes int64) float64 {
	share := float64(memBytes) / float64(c.FullShareBytes)
	return min(share, c.MaxShare)
}

// PressureSlowdown returns the execution-time multiplier from memory
// pressure when a task with the given working set runs in memBytes of
// memory. It is 1 with ample headroom and rises quadratically to
// 1+PressurePenalty as the working set approaches the full memory size.
func (c *Config) PressureSlowdown(workingSet, memBytes int64) float64 {
	if workingSet <= 0 || c.PressurePenalty == 0 || c.PressureKneeRatio <= 1 {
		return 1
	}
	ratio := float64(memBytes) / float64(workingSet)
	if ratio >= c.PressureKneeRatio {
		return 1
	}
	// ratio in [1, knee): 0 tightness at the knee, 1 at a just-fitting set.
	tight := (c.PressureKneeRatio - ratio) / (c.PressureKneeRatio - 1)
	if tight > 1 {
		tight = 1
	}
	return 1 + c.PressurePenalty*tight*tight
}

// ExecTime returns how long a task runs on a function with memBytes of
// memory: linear slowdown below one vCPU, Amdahl-limited speedup above
// it, and a memory-pressure penalty when the working set barely fits.
func (c *Config) ExecTime(task *model.Task, memBytes int64) sim.Duration {
	return RunTime(task.Cycles/c.BaselineHz, task.ParallelFraction,
		c.PressureSlowdown(task.MemoryBytes, memBytes), c.CPUShare(memBytes))
}

// RunTime is ExecTime's rule on precomputed inputs: work that takes serial
// seconds on one baseline vCPU, with Amdahl parallel fraction p, runs on
// share vCPUs under a pressure slowdown of slow.
func RunTime(serial, p, slow, share float64) sim.Duration {
	if share <= 1 {
		return sim.Duration(serial * slow / share)
	}
	speedup := 1 / ((1 - p) + p/share)
	return sim.Duration(serial * slow / speedup)
}

// Platform is a live serverless region bound to a simulation engine.
type Platform struct {
	eng *sim.Engine
	src *rng.Source
	cfg Config
	inj fault.Injector

	functions map[string]*Function
	slots     *sim.Resource // account concurrency

	free sim.FreeList[*invocation]

	stats Stats
}

// Stats aggregates platform activity.
type Stats struct {
	Invocations uint64
	ColdStarts  uint64
	WarmStarts  uint64
	Errors      uint64
	BilledUSD   float64
}

// NewPlatform returns a platform on eng. It panics on invalid config.
func NewPlatform(eng *sim.Engine, src *rng.Source, cfg Config) *Platform {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Platform{
		eng:       eng,
		src:       src,
		cfg:       cfg,
		functions: make(map[string]*Function),
		slots:     sim.NewResource(eng, cfg.Name+"/concurrency", cfg.ConcurrencyLimit),
	}
	if cfg.FailureRate > 0 {
		// The legacy memoryless failure knob is the i.i.d. special case of
		// the composite fault model, bound to the platform's own stream so
		// the draw order (and therefore every golden) is unchanged.
		p.inj = fault.IID(src, cfg.FailureRate)
	}
	return p
}

// SetFaultInjector replaces the platform's fault model (including any
// injector derived from Config.FailureRate). A nil injector disables
// fault injection.
func (p *Platform) SetFaultInjector(inj fault.Injector) { p.inj = inj }

// FaultInjector returns the installed fault model, or nil.
func (p *Platform) FaultInjector() fault.Injector { return p.inj }

// SetColdStart replaces the cold-start model from the current virtual
// time on — regime drift, e.g. a heavier runtime image rolled out
// mid-run. Keep MedianSec's zero/non-zero status unchanged across the
// swap: the per-invocation sample draw count (and with it the platform's
// rng stream) then stays aligned, so runs remain deterministic.
func (p *Platform) SetColdStart(m ColdStartModel) error {
	if err := m.Validate(); err != nil {
		return err
	}
	p.cfg.ColdStart = m
	return nil
}

// Config returns the platform configuration.
func (p *Platform) Config() Config { return p.cfg }

// Stats returns cumulative activity counters.
func (p *Platform) Stats() Stats { return p.stats }

// FunctionConfig describes one deployed function.
type FunctionConfig struct {
	Name        string
	MemoryBytes int64
	// ProvisionedConcurrency keeps this many execution environments warm
	// at all times: invocations taking one skip the cold start, and the
	// capacity bills Price.ProvisionedGBSecondUSD per GB-second of wall
	// time whether used or not.
	ProvisionedConcurrency int
}

// Deploy registers (or re-configures) a function. Memory is clamped to the
// ladder: it must lie within [MinMemory, MaxMemory] and on a step boundary.
// A re-deploy re-configures the existing *Function in place, and functions
// are never removed, so a *Function stays the live one.
func (p *Platform) Deploy(fc FunctionConfig) (*Function, error) {
	if fc.Name == "" {
		return nil, fmt.Errorf("serverless: function with empty name")
	}
	if fc.MemoryBytes < p.cfg.MinMemory || fc.MemoryBytes > p.cfg.MaxMemory {
		return nil, fmt.Errorf("serverless: function %s memory %d outside [%d, %d]",
			fc.Name, fc.MemoryBytes, p.cfg.MinMemory, p.cfg.MaxMemory)
	}
	if (fc.MemoryBytes-p.cfg.MinMemory)%p.cfg.MemoryStep != 0 {
		return nil, fmt.Errorf("serverless: function %s memory %d not on a %d-byte step",
			fc.Name, fc.MemoryBytes, p.cfg.MemoryStep)
	}
	if fc.ProvisionedConcurrency < 0 {
		return nil, fmt.Errorf("serverless: function %s negative provisioned concurrency", fc.Name)
	}
	if f, ok := p.functions[fc.Name]; ok {
		// Re-deploy: new configuration, existing warm containers discarded
		// (as real platforms do on configuration change).
		f.accrueProvisioned()
		f.cfg = fc
		f.discardWarm()
		f.generation++
		return f, nil
	}
	f := &Function{platform: p, cfg: fc, provisionedSince: p.eng.Now()}
	p.functions[fc.Name] = f
	return f, nil
}

// ProvisionedCostUSD returns capacity fees accrued by every function's
// provisioned concurrency up to now, summed in function-name order.
func (p *Platform) ProvisionedCostUSD() float64 {
	names := make([]string, 0, len(p.functions))
	for name := range p.functions {
		names = append(names, name)
	}
	slices.Sort(names)
	total := 0.0
	for _, name := range names {
		total += p.functions[name].ProvisionedCostUSD()
	}
	return total
}

// Function returns the deployed function by name, or nil.
func (p *Platform) Function(name string) *Function {
	return p.functions[name]
}

// Function is one deployed serverless function. It implements
// model.Executor, so schedulers can target it directly.
type Function struct {
	platform   *Platform
	cfg        FunctionConfig
	warm       []*container
	spare      sim.FreeList[*container] // containers out of the warm pool
	generation int

	invocations uint64
	coldStarts  uint64
	billedUSD   float64

	// Provisioned-concurrency accounting.
	provisionedBusy  int
	provisionedSince sim.Time
	provisionedUSD   float64 // accrued capacity fees
}

var _ model.Executor = (*Function)(nil)

// container is one idle execution environment, recycled through
// Function.spare with its expiry callback bound once. A container leaves
// the warm pool only after its expiry is cancelled or has fired, so a
// reused record never hears an old expiry.
type container struct {
	f        *Function
	gen      int
	expiry   sim.EventRef
	expireFn func()
	sim.Link[*container]
}

// Name returns the function name.
func (f *Function) Name() string { return f.cfg.Name }

// Placement returns model.PlaceFunction.
func (f *Function) Placement() model.Placement { return model.PlaceFunction }

// MemoryBytes returns the configured memory size.
func (f *Function) MemoryBytes() int64 { return f.cfg.MemoryBytes }

// Invocations returns how many invocations this function served.
func (f *Function) Invocations() uint64 { return f.invocations }

// ColdStarts returns how many invocations paid a cold start.
func (f *Function) ColdStarts() uint64 { return f.coldStarts }

// BilledUSD returns the money billed to this function so far.
func (f *Function) BilledUSD() float64 { return f.billedUSD }

// WarmContainers returns the current number of idle warm containers.
func (f *Function) WarmContainers() int { return len(f.warm) }

// accrueProvisioned folds the capacity fee up to now into provisionedUSD.
func (f *Function) accrueProvisioned() {
	n := f.cfg.ProvisionedConcurrency
	rate := f.platform.cfg.Price.ProvisionedGBSecondUSD
	if n > 0 && rate > 0 {
		gb := float64(f.cfg.MemoryBytes) / float64(model.GB)
		elapsed := float64(f.platform.eng.Now().Sub(f.provisionedSince))
		f.provisionedUSD += float64(n) * gb * elapsed * rate
	}
	f.provisionedSince = f.platform.eng.Now()
}

// ProvisionedCostUSD returns the capacity fees accrued by this function's
// provisioned concurrency up to the current virtual time.
func (f *Function) ProvisionedCostUSD() float64 {
	f.accrueProvisioned()
	return f.provisionedUSD
}

func (f *Function) discardWarm() {
	for i, c := range f.warm {
		f.platform.eng.Cancel(c.expiry)
		f.spare.Put(c)
		f.warm[i] = nil
	}
	f.warm = f.warm[:0]
}

// takeWarm pops a warm container if one exists, cancelling its expiry.
func (f *Function) takeWarm() bool {
	k := len(f.warm) - 1
	if k < 0 {
		return false
	}
	c := f.warm[k]
	f.warm[k] = nil
	f.warm = f.warm[:k]
	f.platform.eng.Cancel(c.expiry)
	f.spare.Put(c)
	return true
}

// parkWarm returns a container to the pool and schedules its expiry.
func (f *Function) parkWarm() {
	if f.platform.cfg.KeepAlive == 0 {
		return
	}
	c := f.spare.Get()
	if c == nil {
		c = &container{f: f}
		c.expireFn = c.expire
	}
	c.gen = f.generation
	c.expiry = f.platform.eng.After(f.platform.cfg.KeepAlive, c.expireFn)
	f.warm = append(f.warm, c)
}

// expire drops an idle container whose keep-alive ran out.
func (c *container) expire() {
	f := c.f
	if f.generation != c.gen {
		return
	}
	for i, w := range f.warm {
		if w == c {
			k := len(f.warm) - 1
			copy(f.warm[i:], f.warm[i+1:])
			f.warm[k] = nil
			f.warm = f.warm[:k]
			f.spare.Put(c)
			return
		}
	}
}

// Execute implements model.Executor: it queues on the account concurrency
// limit, pays a cold start unless a warm container is available, runs the
// task, bills it, and parks the container for reuse.
func (f *Function) Execute(task *model.Task, done func(model.ExecReport)) {
	if done == nil {
		panic("serverless: Execute with nil callback")
	}
	p := f.platform
	start := p.eng.Now()
	fail := func(err error) {
		p.stats.Errors++
		p.eng.After(0, func() {
			done(model.ExecReport{Start: start, End: p.eng.Now(), Err: err})
		})
	}
	if task.MemoryBytes > f.cfg.MemoryBytes {
		fail(fmt.Errorf("%w: need %d, have %d", ErrOutOfMemory, task.MemoryBytes, f.cfg.MemoryBytes))
		return
	}

	inv := p.free.Get()
	if inv == nil {
		inv = &invocation{}
		inv.grantFn, inv.finishFn = inv.grant, inv.finish
	}
	inv.f, inv.task, inv.start, inv.done = f, task, start, done
	p.slots.Acquire(inv.grantFn)
}

// invocation is one Execute holding or waiting for a concurrency slot,
// recycled through the platform's free list with its callbacks bound
// once.
type invocation struct {
	f     *Function
	task  *model.Task
	start sim.Time
	done  func(model.ExecReport)

	granted         sim.Time
	cold, exec      sim.Duration
	usedProvisioned bool
	timedOut        bool
	crashed         bool

	grantFn, finishFn func()
	sim.Link[*invocation]
}

// grant starts the invocation once it holds a concurrency slot.
func (inv *invocation) grant() {
	f := inv.f
	p := f.platform
	inv.granted = p.eng.Now()
	inv.cold = 0
	inv.usedProvisioned = false
	switch {
	case f.provisionedBusy < f.cfg.ProvisionedConcurrency:
		f.provisionedBusy++
		inv.usedProvisioned = true
		p.stats.WarmStarts++
	case f.takeWarm():
		p.stats.WarmStarts++
	default:
		inv.cold = p.cfg.ColdStart.sample(p.src, f.cfg.MemoryBytes)
		f.coldStarts++
		p.stats.ColdStarts++
	}
	exec := p.cfg.ExecTime(inv.task, f.cfg.MemoryBytes)
	// Fault model: sampled before the timeout clamp so a straggler
	// slowdown can push the invocation over the timeout, while a crash
	// cuts the (possibly clamped) execution short at CrashFrac of the
	// way through — still billed, as real platforms do.
	dec := fault.Decide(p.inj, inv.granted)
	exec = dec.Stretch(exec)
	inv.timedOut = false
	if to := f.platform.cfg.DefaultTimeout; to > 0 && exec > to {
		exec = to
		inv.timedOut = !dec.Crash
	}
	inv.crashed = dec.Crash
	inv.exec = dec.Cut(exec)
	p.eng.After(inv.cold+inv.exec, inv.finishFn)
}

// finish bills the invocation, returns the record to the free list and
// only then calls done.
func (inv *invocation) finish() {
	f := inv.f
	p := f.platform
	p.slots.Release()
	switch {
	case inv.usedProvisioned:
		// The environment returns to the provisioned pool (the
		// platform replaces crashed provisioned environments).
		f.provisionedBusy--
	case inv.crashed:
		// A crashed container is not returned to the warm pool.
	default:
		f.parkWarm()
	}
	f.invocations++
	p.stats.Invocations++
	// Billed duration includes initialisation, as on-demand billing
	// does for container runtimes; cost accrues even for timeouts
	// and crashes. Pricing follows the invocation's start time.
	cost := p.cfg.Price.BillAt(f.cfg.MemoryBytes, inv.cold+inv.exec, inv.granted)
	f.billedUSD += cost
	p.stats.BilledUSD += cost
	rep := model.ExecReport{
		Start:     inv.start,
		End:       p.eng.Now(),
		QueueWait: inv.granted.Sub(inv.start),
		ColdStart: inv.cold,
		CostUSD:   cost,
	}
	if inv.timedOut {
		rep.Err = ErrTimedOut
		p.stats.Errors++
	}
	if inv.crashed {
		rep.Err = ErrTransient
		p.stats.Errors++
	}
	done := inv.done
	inv.f, inv.task, inv.done = nil, nil, nil
	p.free.Put(inv)
	done(rep)
}

// RunningSlots returns the number of concurrency slots in use.
func (p *Platform) RunningSlots() int { return p.slots.InUse() }

// QueuedInvocations returns invocations waiting for a concurrency slot.
func (p *Platform) QueuedInvocations() int { return p.slots.QueueLen() }

// WarmContainers returns the warm containers pooled across all deployed
// functions. Summing over the map is order-independent, so the result is
// deterministic despite map iteration.
func (p *Platform) WarmContainers() int {
	total := 0
	for _, f := range p.functions {
		total += len(f.warm)
	}
	return total
}

// ColdStartFraction returns cold starts as a fraction of invocations so
// far, or 0 before the first invocation.
func (p *Platform) ColdStartFraction() float64 {
	if p.stats.Invocations == 0 {
		return 0
	}
	return float64(p.stats.ColdStarts) / float64(p.stats.Invocations)
}
