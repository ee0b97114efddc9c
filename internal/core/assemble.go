package core

import (
	"fmt"

	"offload/internal/adapt"
	"offload/internal/cloudvm"
	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// scope names the constructor a configuration is checked for.
type scope uint8

const (
	scopeSystem scope = 1 << iota
	scopeServe
	scopeFleet
	scopeSharded

	fleets    = scopeFleet | scopeSharded
	allScopes = scopeSystem | scopeServe | fleets
)

var scopeNames = map[scope]string{
	scopeSystem: "system", scopeServe: "serve mode", scopeFleet: "fleet", scopeSharded: "sharded fleet",
}

// configRules is the one configuration check: each rule names the scopes
// it applies to and what a bad configuration looks like. The rules
// limited to some scopes reject the features those constructors cannot
// honour, so no constructor accepts a field and then ignores it; the
// rules for all scopes reject configurations no constructor can build.
var configRules = []struct {
	scopes scope
	err    string
	bad    func(Config) bool // by value: a *Config passed to a func value escapes to the heap
}{
	{scopeServe | fleets, "Batch and OffPeakShift unsupported", func(c Config) bool { return c.Batch != nil || c.OffPeakShift }},
	{fleets, "Resilience unsupported", func(c Config) bool { return c.Resilience != nil }},
	{fleets, "Regions unsupported", func(c Config) bool { return c.Regions != nil }},
	{fleets, "DailyBudgetUSD unsupported", func(c Config) bool { return c.DailyBudgetUSD > 0 }},
	{fleets, "fault injection unsupported", func(c Config) bool { return c.Fault != nil || c.EdgeFault != nil || c.VMFault != nil }},
	{fleets, "DAG jobs unsupported", func(c Config) bool { return c.DAG != nil }},
	{scopeSharded, "Adapt unsupported", func(c Config) bool { return c.Adapt != nil }},
	{scopeSharded, "bandit policies unsupported", func(c Config) bool { return c.Policy == PolicyBanditUCB || c.Policy == PolicyBanditGreedy }},
	{allScopes &^ scopeSharded, "sharding unsupported", func(c Config) bool { return c.ShardCount > 1 }},

	{allScopes, "Batch and OffPeakShift are mutually exclusive", func(c Config) bool { return c.Batch != nil && c.OffPeakShift }},
	{allScopes, "DAG is mutually exclusive with Batch and OffPeakShift", func(c Config) bool { return c.DAG != nil && (c.Batch != nil || c.OffPeakShift) }},
	{allScopes, "edge configured without an edge path", func(c Config) bool { return c.Edge != nil && c.EdgePath == nil }},
	{allScopes, "serverless configured without a cloud path", func(c Config) bool { return c.Serverless != nil && c.CloudPath == nil }},
	{allScopes, "VM configured without a cloud path", func(c Config) bool { return c.VM != nil && c.CloudPath == nil }},
	{allScopes, "EdgePath configured without edge", func(c Config) bool { return c.EdgePath != nil && c.Edge == nil }},
	{allScopes, "CloudPath configured without serverless or a VM fleet", func(c Config) bool {
		return c.CloudPath != nil && c.Serverless == nil && c.VM == nil
	}},
	{allScopes, "function pool knobs configured without serverless", func(c Config) bool {
		return c.Serverless == nil && (c.ArrivalRateHint != 0 || c.RedeployTolerance != 0 || c.ProvisionedConcurrency != 0)
	}},
	{allScopes, "Fault configured without serverless", func(c Config) bool { return c.Fault != nil && c.Serverless == nil }},
	{allScopes, "EdgeFault configured without edge", func(c Config) bool { return c.EdgeFault != nil && c.Edge == nil }},
	{allScopes, "VMFault configured without a VM fleet", func(c Config) bool { return c.VMFault != nil && c.VM == nil }},
	{allScopes, "Regions.Edge named without an edge site", func(c Config) bool { return c.Regions != nil && c.Regions.Edge != "" && c.Edge == nil }},
	{allScopes, "Regions.Serverless named without serverless", func(c Config) bool { return c.Regions != nil && c.Regions.Serverless != "" && c.Serverless == nil }},
	{allScopes, "Regions.VM named without a VM fleet", func(c Config) bool { return c.Regions != nil && c.Regions.VM != "" && c.VM == nil }},
	{allScopes, "negative ShardCount", func(c Config) bool { return c.ShardCount < 0 }},
	{allScopes, "retry backoff or jitter without Retries > 1", func(c Config) bool {
		return c.Retries <= 1 && (c.RetryBackoff != 0 || c.RetryMaxBackoff != 0 || c.RetryJitter)
	}},
}

// check validates the configuration for one constructor's scope.
func (c *Config) check(sc scope) error {
	for _, r := range configRules {
		if r.scopes&sc != 0 && r.bad(*c) {
			return fmt.Errorf("core: %s: %s", scopeNames[sc], r.err)
		}
	}
	return c.Device.Validate()
}

// substrates are the remote substrates the UEs on one engine share: the
// edge site, the VM fleet and the function pool over the serverless
// platform. Building them draws no randomness and schedules no events;
// the platform takes its stream from the first functions call.
type substrates struct {
	cfg  Config // by value: a pointer would move the constructor's Config to the heap
	eng  *sim.Engine
	n    int // UEs sharing the pool, scaling its arrival-rate hint
	edge *edge.Cluster
	vm   *cloudvm.Fleet
	pool *sched.FunctionPool
}

func newSubstrates(cfg *Config, eng *sim.Engine, n int) substrates {
	sub := substrates{cfg: *cfg, eng: eng, n: n}
	if cfg.Edge != nil {
		sub.edge = edge.New(eng, *cfg.Edge)
	}
	if cfg.VM != nil {
		sub.vm = cloudvm.New(eng, *cfg.VM)
	}
	return sub
}

// functions returns the function pool, or nil without serverless. The
// first call creates the serverless platform from src.Split().
func (sub *substrates) functions(src *rng.Source) *sched.FunctionPool {
	if sub.pool == nil && sub.cfg.Serverless != nil {
		sub.pool = sched.NewFunctionPool(serverless.NewPlatform(sub.eng, src.Split(), *sub.cfg.Serverless))
		sub.pool.ArrivalRateHint = sub.cfg.ArrivalRateHint * float64(sub.n)
		sub.pool.RedeployTolerance = sub.cfg.RedeployTolerance
		sub.pool.ProvisionedConcurrency = sub.cfg.ProvisionedConcurrency
	}
	return sub.pool
}

// newUE assembles one device, its radio paths and its scheduler over the
// shared substrates, drawing every split from the UE's own source in a
// fixed order: edge path, serverless platform (on the substrates' first
// functions call), cloud path, policy, prediction noise, retry jitter.
// remote, when non-nil, carries the remote executions (a shard's port to
// the hub); pools are eng's free lists, which every UE on eng shares.
// The adaptive controller, then the daily budget, subscribe to the UE's
// lifecycle stream here, ahead of any recorder.
func newUE(cfg *Config, eng *sim.Engine, src *rng.Source, sub *substrates, remote sched.RemoteBackends, pools *enginePools) (*sched.Scheduler, *adapt.Controller, error) {
	env := &sched.Env{Eng: eng, Device: device.New(eng, cfg.Device), Remote: remote,
		Tasks: &pools.tasks, Attempts: &pools.attempts}
	if sub.edge != nil {
		env.Edge = sub.edge
		env.EdgePath = network.New(eng, src.Split(), *cfg.EdgePath)
	}
	if pool := sub.functions(src); pool != nil {
		env.Functions = pool
		env.CloudPath = network.New(eng, src.Split(), *cfg.CloudPath)
	}
	if sub.vm != nil {
		env.VM = sub.vm
		if env.CloudPath == nil {
			env.CloudPath = network.New(eng, src.Split(), *cfg.CloudPath)
		}
	}

	policy, ctrl, err := buildPolicy(cfg, src, env)
	if err != nil {
		return nil, nil, err
	}
	var budget *sched.Budget
	if cfg.DailyBudgetUSD > 0 {
		if budget, err = sched.NewBudget(eng, cfg.DailyBudgetUSD); err != nil {
			return nil, nil, err
		}
		policy = &sched.BudgetedPolicy{Inner: policy, Budget: budget}
	}
	var pred sched.Predictor = sched.NewPerApp(0.3)
	if cfg.PredictionNoise > 0 {
		pred = sched.NewNoisy(pred, src.Split(), cfg.PredictionNoise)
	}

	var opts []sched.Option
	if cfg.Retries > 1 {
		backoff := cfg.RetryBackoff
		if backoff <= 0 {
			backoff = 1
		}
		rp := sched.RetryPolicy{
			MaxAttempts: cfg.Retries,
			Backoff:     backoff,
			MaxBackoff:  cfg.RetryMaxBackoff,
		}
		if cfg.RetryJitter {
			rp.Jitter = src.Split()
		}
		opts = append(opts, sched.WithRetries(rp))
	}
	if cfg.LocalDVFSMinScale > 0 {
		opts = append(opts, sched.WithLocalDVFS(cfg.LocalDVFSMinScale))
	}
	if cfg.Resilience != nil {
		opts = append(opts, sched.WithResilience(*cfg.Resilience))
	}
	if cfg.Regions != nil && cfg.Regions.Failover != nil {
		opts = append(opts, sched.WithFailover(cfg.Regions.failover()))
	}
	s, err := sched.New(env, policy, pred, opts...)
	if err != nil {
		return nil, nil, err
	}
	if ctrl != nil {
		env.Events.Subscribe(ctrl)
	}
	if budget != nil {
		env.Events.Subscribe(budget)
	}
	return s, ctrl, nil
}

// enginePools are the free lists every UE on one engine shares: one set
// per System, per Fleet and per shard of a ShardedFleet.
type enginePools struct {
	tasks    model.TaskPool
	attempts sched.AttemptPool
}

// fleetUEs is what Fleet and ShardedFleet share: n UEs over one set of
// substrates.
type fleetUEs struct {
	Devices    []*device.Device
	Schedulers []*sched.Scheduler

	sub substrates
}

func newFleetUEs(cfg *Config, eng *sim.Engine, n int) fleetUEs {
	return fleetUEs{
		Devices:    make([]*device.Device, 0, n),
		Schedulers: make([]*sched.Scheduler, 0, n),
		sub:        newSubstrates(cfg, eng, n),
	}
}

// addUE assembles UE i, its device named after the template with the
// index appended, and appends it to the fleet.
func (f *fleetUEs) addUE(cfg Config, i int, eng *sim.Engine, src *rng.Source, remote sched.RemoteBackends, pools *enginePools) error {
	cfg.Device.Name = fmt.Sprintf("%s-%04d", cfg.Device.Name, i)
	s, _, err := newUE(&cfg, eng, src, &f.sub, remote, pools)
	if err != nil {
		return err
	}
	f.Devices = append(f.Devices, s.Env().Device)
	f.Schedulers = append(f.Schedulers, s)
	return nil
}

// Size returns the number of devices.
func (f *fleetUEs) Size() int { return len(f.Devices) }

// Platform returns the shared serverless platform, or nil.
func (f *fleetUEs) Platform() *serverless.Platform {
	if f.sub.pool == nil {
		return nil
	}
	return f.sub.pool.Platform()
}

// Stats aggregates every scheduler's statistics. Per-device histograms
// merge in device order, so serial and sharded runs aggregate
// identically and the aggregate is deterministic for a configuration.
func (f *fleetUEs) Stats() FleetStats {
	out := FleetStats{Completion: metrics.NewLatencyHistogram()}
	var meanSum float64
	for _, s := range f.Schedulers {
		st := s.Stats()
		out.Completed += st.Completed
		out.Failed += st.Failed
		out.Missed += st.Missed
		out.Retries += st.Retries
		out.CostUSD += st.CostUSD
		out.EnergyMilliJ += st.EnergyMilliJ
		out.FailedCostUSD += st.FailedCostUSD
		out.FailedEnergyMilliJ += st.FailedEnergyMilliJ
		if err := out.Completion.Merge(st.Completion); err != nil {
			panic(err) // all schedulers use NewLatencyHistogram; cannot happen
		}
		meanSum += st.MeanCompletion() * float64(st.Completed)
		for p, n := range st.ByPlacement {
			out.ByPlacement[p] += n
		}
	}
	if out.Completed > 0 {
		out.MeanCompletion = meanSum / float64(out.Completed)
	}
	return out
}
