// Package network models the paths between user equipment and remote
// compute: the wide-area path to the cloud and the local-area path to an
// edge site.
//
// A Path has a propagation delay, asymmetric bandwidth, jitter, and an
// optional Gilbert–Elliott two-state degradation chain (good/bad radio
// conditions). Transfer produces virtual-time completion callbacks on the
// simulation engine, so schedulers can compose "uplink → execute →
// downlink" flows.
package network

import (
	"fmt"

	"offload/internal/rng"
	"offload/internal/sim"
)

// Direction distinguishes uplink (device to remote) from downlink.
type Direction int

// Transfer directions.
const (
	Uplink Direction = iota
	Downlink
)

// String returns "uplink" or "downlink".
func (d Direction) String() string {
	if d == Uplink {
		return "uplink"
	}
	return "downlink"
}

// Config describes a network path.
type Config struct {
	Name string

	// OneWayDelay is the propagation delay in each direction.
	OneWayDelay sim.Duration
	// JitterStd is the standard deviation of per-transfer delay noise, in
	// seconds. Sampled noise is clamped so delay never goes negative.
	JitterStd float64

	UplinkBps   float64 // device→remote bandwidth, bits per second
	DownlinkBps float64 // remote→device bandwidth, bits per second

	// Gilbert–Elliott degradation. Rates are per second of virtual time;
	// zero rates disable the chain (path is always good). In the bad state
	// bandwidth is multiplied by BadFactor.
	GoodToBadRate float64
	BadToGoodRate float64
	BadFactor     float64

	// Serialize makes transfers queue on a single radio (realistic for one
	// device's cellular modem). When false, transfers overlap freely.
	Serialize bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case !(c.OneWayDelay >= 0):
		return fmt.Errorf("network: %s: negative one-way delay", c.Name)
	case !(c.UplinkBps > 0 && c.DownlinkBps > 0):
		return fmt.Errorf("network: %s: bandwidth must be positive", c.Name)
	case !(c.JitterStd >= 0):
		return fmt.Errorf("network: %s: negative jitter", c.Name)
	case !(c.GoodToBadRate >= 0 && c.BadToGoodRate >= 0):
		return fmt.Errorf("network: %s: negative transition rate", c.Name)
	case (c.GoodToBadRate > 0) != (c.BadToGoodRate > 0):
		return fmt.Errorf("network: %s: both transition rates must be set together", c.Name)
	case c.GoodToBadRate > 0 && !(c.BadFactor > 0 && c.BadFactor <= 1):
		return fmt.Errorf("network: %s: BadFactor must be in (0,1] when degradation is enabled", c.Name)
	}
	return nil
}

// Path is a live network path bound to a simulation engine.
type Path struct {
	eng *sim.Engine
	src *rng.Source
	cfg Config

	radio *sim.Resource // nil unless cfg.Serialize

	// Lazily advanced Gilbert–Elliott state.
	bad            bool
	nextTransition sim.Time

	bytesUp, bytesDown int64
	transfers          uint64

	free sim.FreeList[*transfer]
}

// New returns a Path on eng using src for stochastic draws. It panics if
// the configuration is invalid; configs are programmer-supplied constants.
func New(eng *sim.Engine, src *rng.Source, cfg Config) *Path {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Path{eng: eng, src: src, cfg: cfg}
	if cfg.Serialize {
		p.radio = sim.NewResource(eng, cfg.Name+"/radio", 1)
	}
	if cfg.GoodToBadRate > 0 {
		p.nextTransition = eng.Now().Add(sim.Duration(src.Exp(cfg.GoodToBadRate)))
	}
	return p
}

// Name returns the configured path name.
func (p *Path) Name() string { return p.cfg.Name }

// Config returns the path configuration.
func (p *Path) Config() Config { return p.cfg }

// Report is the outcome of one transfer.
type Report struct {
	Start, End sim.Time
	Bytes      int64
	Direction  Direction
	// Degraded reports whether the path was in the bad state when the
	// transfer started.
	Degraded bool
}

// Duration returns the transfer's wall time including queueing.
func (r Report) Duration() sim.Duration { return r.End.Sub(r.Start) }

// advanceChain moves the Gilbert–Elliott chain forward to the current
// virtual time, flipping states at their sampled sojourn boundaries.
func (p *Path) advanceChain() {
	if p.cfg.GoodToBadRate == 0 {
		return
	}
	now := p.eng.Now()
	for p.nextTransition <= now {
		at := p.nextTransition
		p.bad = !p.bad
		rate := p.cfg.GoodToBadRate
		if p.bad {
			rate = p.cfg.BadToGoodRate
		}
		p.nextTransition = at.Add(sim.Duration(p.src.Exp(rate)))
	}
}

// bandwidth returns the effective bits-per-second for dir right now.
func (p *Path) bandwidth(dir Direction) float64 {
	bps := p.cfg.UplinkBps
	if dir == Downlink {
		bps = p.cfg.DownlinkBps
	}
	if p.bad {
		bps *= p.cfg.BadFactor
	}
	return bps
}

// EstimateTransfer returns the expected duration of moving n bytes in dir
// under good conditions with no queueing. Schedulers use this for planning;
// actual transfers include jitter and degradation.
func (p *Path) EstimateTransfer(n int64, dir Direction) sim.Duration {
	bps := p.cfg.UplinkBps
	if dir == Downlink {
		bps = p.cfg.DownlinkBps
	}
	return p.cfg.OneWayDelay + sim.Duration(float64(8*n)/bps)
}

// Transfer moves n bytes across the path in dir and calls done when the
// last byte arrives. Zero-byte transfers still pay propagation delay
// (a request with empty payload). Negative sizes panic.
func (p *Path) Transfer(n int64, dir Direction, done func(Report)) {
	if n < 0 {
		panic(fmt.Sprintf("network: %s: negative transfer size %d", p.cfg.Name, n))
	}
	if done == nil {
		panic("network: Transfer with nil callback")
	}
	t := p.free.Get()
	if t == nil {
		t = &transfer{p: p}
		t.runFn, t.finishFn = t.run, t.finish
	}
	t.n, t.dir, t.start, t.done = n, dir, p.eng.Now(), done
	if p.radio != nil {
		p.radio.Acquire(t.runFn)
		return
	}
	t.run()
}

// transfer is one in-flight Transfer, recycled through the path's free
// list with its callbacks bound once.
type transfer struct {
	p        *Path
	n        int64
	dir      Direction
	start    sim.Time
	degraded bool
	done     func(Report)

	runFn, finishFn func()
	sim.Link[*transfer]
}

// run starts moving the bytes, once the radio (if serialised) is held.
func (t *transfer) run() {
	p := t.p
	p.advanceChain()
	t.degraded = p.bad
	d := float64(p.cfg.OneWayDelay) + float64(8*t.n)/p.bandwidth(t.dir)
	if p.cfg.JitterStd > 0 {
		d += p.src.Normal(0, p.cfg.JitterStd)
		if d < 0 {
			d = 0
		}
	}
	p.eng.After(sim.Duration(d), t.finishFn)
}

// finish accounts the transfer, returns the record to the free list and
// only then calls done, which may start another transfer on this path.
func (t *transfer) finish() {
	p := t.p
	p.transfers++
	if t.dir == Uplink {
		p.bytesUp += t.n
	} else {
		p.bytesDown += t.n
	}
	if p.radio != nil {
		p.radio.Release()
	}
	rep := Report{Start: t.start, End: p.eng.Now(), Bytes: t.n, Direction: t.dir, Degraded: t.degraded}
	done := t.done
	t.done = nil
	p.free.Put(t)
	done(rep)
}

// Stats summarises path usage.
type Stats struct {
	Transfers uint64
	BytesUp   int64
	BytesDown int64
}

// Stats returns cumulative usage counters.
func (p *Path) Stats() Stats {
	return Stats{Transfers: p.transfers, BytesUp: p.bytesUp, BytesDown: p.bytesDown}
}
