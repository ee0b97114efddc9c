// Package fault is the composable fault model shared by every compute
// substrate (serverless, edge, cloud VM). It layers four failure modes
// behind one Injector interface:
//
//   - i.i.d. transient failures — each invocation independently crashes
//     with probability FailureRate (subsumes the legacy
//     serverless.Config.FailureRate);
//   - a Gilbert–Elliott chain — the substrate alternates between a Good
//     and a Bad state with exponential sojourns, and in the Bad state
//     invocations crash with BadFailRate, producing the bursty,
//     correlated outages real platforms exhibit;
//   - scheduled outage windows — a regional incident of duration D
//     starting at time T rejects every invocation inside the window,
//     optionally followed by a recovery ramp during which capacity comes
//     back server by server instead of all at once;
//   - brown-out windows — a partial-capacity incident: inside the window
//     only a Capacity fraction of the substrate survives, so invocations
//     are rejected with probability 1−Capacity and the survivors run
//     1/Capacity× slower;
//   - straggler slowdowns — with probability StragglerProb an invocation
//     runs slower by a heavy-tailed (Pareto) factor.
//
// Regional, correlated failures are expressed by giving every substrate
// in a region the same schedule (see RegionSchedule) and composing it in
// front of the substrate's own fault model with Chain.
//
// All randomness flows through an injected *rng.Source, so simulations
// remain byte-deterministic under exp.Runner parallelism.
package fault

import (
	"fmt"
	"math"
	"sort"

	"offload/internal/rng"
	"offload/internal/sim"
)

// Decision is the sampled fault outcome for one invocation.
type Decision struct {
	// Crash aborts the invocation with a transient infrastructure error.
	Crash bool
	// CrashFrac is the fraction of the execution completed before the
	// crash, in [0, 1). Zero models an immediate rejection (the substrate
	// is down); larger values model containers dying mid-execution, which
	// still consume — and bill — time.
	CrashFrac float64
	// Slowdown multiplies the invocation's execution time (straggler
	// injection). Always >= 1; exactly 1 means no slowdown. Never set on
	// crashed invocations.
	Slowdown float64
}

// Decide returns inj's decision for an invocation starting at now, or no
// fault when inj is nil.
func Decide(inj Injector, now sim.Time) Decision {
	if inj == nil {
		return Decision{Slowdown: 1}
	}
	return inj.Decide(now)
}

// Stretch returns exec slowed by a straggler's Slowdown.
func (d Decision) Stretch(exec sim.Duration) sim.Duration {
	if d.Slowdown > 1 {
		return sim.Duration(float64(exec) * d.Slowdown)
	}
	return exec
}

// Cut returns exec cut short at CrashFrac when the invocation crashes.
func (d Decision) Cut(exec sim.Duration) sim.Duration {
	if d.Crash {
		return sim.Duration(float64(exec) * d.CrashFrac)
	}
	return exec
}

// Apply is the fault rule for a substrate without a timeout: a crash holds
// the executor for CrashFrac of the run, a straggler holds it Slowdown×
// longer.
func (d Decision) Apply(exec sim.Duration) sim.Duration { return d.Cut(d.Stretch(exec)) }

// Injector samples one fault Decision per invocation. Implementations are
// deterministic functions of their rng.Source and the (non-decreasing)
// times they are asked about; like the rest of the simulator they are not
// safe for concurrent use.
type Injector interface {
	Decide(now sim.Time) Decision
}

// Window is one scheduled outage: invocations starting inside
// [Start, Start+Duration) are rejected immediately.
type Window struct {
	Start    sim.Time
	Duration sim.Duration
}

// End returns the first instant after the outage.
func (w Window) End() sim.Time { return w.Start.Add(w.Duration) }

// Brownout is one scheduled partial-capacity window: inside it only a
// Capacity fraction of the substrate is alive, so each invocation is
// rejected with probability 1−Capacity and the survivors run
// 1/Capacity× slower on the remaining, oversubscribed units.
type Brownout struct {
	Window
	// Capacity is the surviving fraction of the substrate, in (0, 1).
	Capacity float64
}

// Config describes a composite fault model. The zero value injects
// nothing. Modes compose: an invocation first checks scheduled outages,
// then the Gilbert–Elliott chain, then the i.i.d. coin, and only
// crash-free invocations can be slowed down as stragglers.
type Config struct {
	// FailureRate is the probability an invocation independently dies with
	// a transient error partway through execution. Zero disables.
	FailureRate float64

	// GoodToBadRate and BadToGoodRate are the exponential transition rates
	// (per second) of the Gilbert–Elliott chain; both must be set together.
	// While the chain is Bad, invocations crash with BadFailRate.
	GoodToBadRate float64
	BadToGoodRate float64
	BadFailRate   float64

	// Outages lists scheduled outage windows. They must not overlap; New
	// sorts them by start time.
	Outages []Window

	// RecoveryRamp heals each outage gradually instead of instantly: for
	// this long after an outage window ends, invocations still crash with
	// a probability that decays linearly from 1 to 0 — the region's
	// capacity coming back server by server. Zero keeps instant healing.
	// Requires at least one outage window.
	RecoveryRamp sim.Duration

	// Brownouts lists scheduled partial-capacity windows. They must not
	// overlap each other; New sorts them by start time.
	Brownouts []Brownout

	// StragglerProb slows an invocation down with this probability by a
	// Pareto(StragglerFactor, StragglerAlpha) multiplier, so the typical
	// straggler runs StragglerFactor× slower and the tail is heavy.
	StragglerProb   float64
	StragglerFactor float64
	StragglerAlpha  float64
}

// Enabled reports whether the configuration injects anything at all.
func (c Config) Enabled() bool {
	return c.FailureRate > 0 || c.GoodToBadRate > 0 ||
		len(c.Outages) > 0 || len(c.Brownouts) > 0 || c.StragglerProb > 0
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	for _, v := range []float64{
		c.FailureRate, c.GoodToBadRate, c.BadToGoodRate, c.BadFailRate,
		c.StragglerProb, c.StragglerFactor, c.StragglerAlpha,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fault: non-finite parameter %g", v)
		}
	}
	switch {
	case c.FailureRate < 0 || c.FailureRate >= 1:
		return fmt.Errorf("fault: failure rate %g outside [0,1)", c.FailureRate)
	case c.GoodToBadRate < 0 || c.BadToGoodRate < 0:
		return fmt.Errorf("fault: negative chain transition rate")
	case (c.GoodToBadRate > 0) != (c.BadToGoodRate > 0):
		return fmt.Errorf("fault: both chain transition rates must be set together")
	case c.GoodToBadRate > 0 && (c.BadFailRate <= 0 || c.BadFailRate > 1):
		return fmt.Errorf("fault: bad-state failure rate %g outside (0,1]", c.BadFailRate)
	case c.GoodToBadRate == 0 && c.BadFailRate != 0:
		return fmt.Errorf("fault: bad-state failure rate without a chain")
	case c.StragglerProb < 0 || c.StragglerProb >= 1:
		return fmt.Errorf("fault: straggler probability %g outside [0,1)", c.StragglerProb)
	case c.StragglerProb > 0 && c.StragglerFactor < 1:
		return fmt.Errorf("fault: straggler factor %g below 1", c.StragglerFactor)
	case c.StragglerProb > 0 && c.StragglerAlpha <= 0:
		return fmt.Errorf("fault: straggler alpha %g not positive", c.StragglerAlpha)
	case c.StragglerProb == 0 && (c.StragglerFactor != 0 || c.StragglerAlpha != 0):
		return fmt.Errorf("fault: straggler parameters without a probability")
	case math.IsNaN(float64(c.RecoveryRamp)) || math.IsInf(float64(c.RecoveryRamp), 0) || c.RecoveryRamp < 0:
		return fmt.Errorf("fault: recovery ramp %g not finite and non-negative", float64(c.RecoveryRamp))
	case c.RecoveryRamp > 0 && len(c.Outages) == 0:
		return fmt.Errorf("fault: recovery ramp without an outage window")
	}
	sorted := sortedWindows(c.Outages)
	for i, w := range sorted {
		if !(w.Start >= 0) || !(w.Duration > 0) ||
			math.IsInf(float64(w.Start), 0) || math.IsInf(float64(w.Duration), 0) {
			return fmt.Errorf("fault: outage window %d (start %g, duration %g) not positive and finite",
				i, float64(w.Start), float64(w.Duration))
		}
		if i > 0 && w.Start < sorted[i-1].End().Add(c.RecoveryRamp) {
			return fmt.Errorf("fault: outage windows (including recovery ramps) overlap at %g", float64(w.Start))
		}
	}
	browns := sortedBrownouts(c.Brownouts)
	for i, b := range browns {
		if !(b.Start >= 0) || !(b.Duration > 0) ||
			math.IsInf(float64(b.Start), 0) || math.IsInf(float64(b.Duration), 0) {
			return fmt.Errorf("fault: brownout window %d (start %g, duration %g) not positive and finite",
				i, float64(b.Start), float64(b.Duration))
		}
		if math.IsNaN(b.Capacity) || b.Capacity <= 0 || b.Capacity >= 1 {
			return fmt.Errorf("fault: brownout capacity %g outside (0,1)", b.Capacity)
		}
		if i > 0 && b.Start < browns[i-1].End() {
			return fmt.Errorf("fault: brownout windows overlap at %g", float64(b.Start))
		}
	}
	return nil
}

func sortedWindows(ws []Window) []Window {
	out := make([]Window, len(ws))
	copy(out, ws)
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

func sortedBrownouts(bs []Brownout) []Brownout {
	out := make([]Brownout, len(bs))
	copy(out, bs)
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// injector is the composite Injector behind New and IID.
type injector struct {
	src *rng.Source
	cfg Config

	outages []Window // sorted by start
	outIdx  int      // first window whose ramp (end + RecoveryRamp) is still in the future

	brownouts []Brownout // sorted by start
	boIdx     int        // first brownout whose end is still in the future

	chainInit      bool
	bad            bool
	nextTransition sim.Time
}

// New returns an Injector for cfg drawing from src. A disabled
// configuration yields a nil Injector (inject nothing) and no error.
func New(src *rng.Source, cfg Config) (Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if src == nil {
		return nil, fmt.Errorf("fault: nil rng source")
	}
	return &injector{
		src:       src,
		cfg:       cfg,
		outages:   sortedWindows(cfg.Outages),
		brownouts: sortedBrownouts(cfg.Brownouts),
	}, nil
}

// IID returns an injector with only the memoryless per-invocation failure
// mode — the exact legacy serverless.Config.FailureRate behaviour,
// including its draw order (one Bool per invocation, one extra Float64 on
// a crash), so simulations that predate this package reproduce their old
// byte-identical output.
func IID(src *rng.Source, rate float64) Injector {
	inj, err := New(src, Config{FailureRate: rate})
	if err != nil {
		panic(err)
	}
	return inj
}

// Decide implements Injector. Draw order is part of the package contract:
// scheduled outages consume no randomness; a recovery ramp draws one Bool
// while it is live; a brownout draws one Bool (its slowdown is
// deterministic); the chain draws its sojourns lazily plus one Bool (and
// one Float64 on crash) in the Bad state; the i.i.d. mode draws one Bool
// (and one Float64 on crash); stragglers draw one Bool (and one Pareto
// variate when slowed). Modes left unset draw nothing, so extending a
// configuration never perturbs the byte stream of the modes it already
// used.
func (i *injector) Decide(now sim.Time) Decision {
	d := Decision{Slowdown: 1}
	if i.inOutage(now) {
		d.Crash = true
		return d
	}
	if p := i.rampCrashProb(now); p > 0 && i.src.Bool(p) {
		// A rejected arrival during the ramp: the instance it hashed to is
		// not back yet, so the invocation bounces immediately.
		d.Crash = true
		return d
	}
	if f, ok := i.inBrownout(now); ok {
		if i.src.Bool(1 - f) {
			// The invocation landed on lost capacity and bounces.
			d.Crash = true
			return d
		}
		d.Slowdown = 1 / f
	}
	if i.cfg.GoodToBadRate > 0 {
		i.advanceChain(now)
		if i.bad && i.src.Bool(i.cfg.BadFailRate) {
			d.Crash = true
			d.CrashFrac = i.src.Float64()
			return d
		}
	}
	if i.cfg.FailureRate > 0 && i.src.Bool(i.cfg.FailureRate) {
		d.Crash = true
		d.CrashFrac = i.src.Float64()
		return d
	}
	if i.cfg.StragglerProb > 0 && i.src.Bool(i.cfg.StragglerProb) {
		d.Slowdown *= i.src.Pareto(i.cfg.StragglerFactor, i.cfg.StragglerAlpha)
	}
	return d
}

// inOutage reports whether now falls inside a scheduled outage window,
// discarding windows whose recovery ramp has fully played out.
func (i *injector) inOutage(now sim.Time) bool {
	for i.outIdx < len(i.outages) && now >= i.outages[i.outIdx].End().Add(i.cfg.RecoveryRamp) {
		i.outIdx++
	}
	return i.outIdx < len(i.outages) &&
		now >= i.outages[i.outIdx].Start && now < i.outages[i.outIdx].End()
}

// rampCrashProb returns the crash probability of the recovery ramp at
// now: 1 at the moment an outage window ends, decaying linearly to 0
// over RecoveryRamp. Zero outside any ramp (or with no ramp configured).
// Must be called after inOutage, which positions outIdx on the window
// whose ramp could still be live.
func (i *injector) rampCrashProb(now sim.Time) float64 {
	if i.cfg.RecoveryRamp <= 0 || i.outIdx >= len(i.outages) {
		return 0
	}
	end := i.outages[i.outIdx].End()
	if now < end {
		return 0
	}
	return 1 - float64(now.Sub(end))/float64(i.cfg.RecoveryRamp)
}

// inBrownout returns the surviving capacity fraction if now falls inside
// a scheduled brownout window, discarding windows that already ended.
func (i *injector) inBrownout(now sim.Time) (float64, bool) {
	for i.boIdx < len(i.brownouts) && now >= i.brownouts[i.boIdx].End() {
		i.boIdx++
	}
	if i.boIdx < len(i.brownouts) && now >= i.brownouts[i.boIdx].Start {
		return i.brownouts[i.boIdx].Capacity, true
	}
	return 0, false
}

// advanceChain moves the Gilbert–Elliott chain to now, flipping states at
// their sampled sojourn boundaries (same construction as the network
// path's degradation chain). The chain starts Good at the first decision.
func (i *injector) advanceChain(now sim.Time) {
	if !i.chainInit {
		i.chainInit = true
		i.nextTransition = now.Add(sim.Duration(i.src.Exp(i.cfg.GoodToBadRate)))
	}
	for i.nextTransition <= now {
		at := i.nextTransition
		i.bad = !i.bad
		rate := i.cfg.GoodToBadRate
		if i.bad {
			rate = i.cfg.BadToGoodRate
		}
		next := at.Add(sim.Duration(i.src.Exp(rate)))
		if next <= at {
			// The sampled sojourn underflowed at this magnitude of virtual
			// time (an extreme transition rate). Step just past now so the
			// loop always terminates.
			next = sim.Time(math.Nextafter(float64(now), math.Inf(1)))
		}
		i.nextTransition = next
	}
}
