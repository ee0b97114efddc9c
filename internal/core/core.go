// Package core is the framework façade: it assembles the substrates
// (device, networks, edge, serverless, VMs) into a live System driven by a
// placement policy, and provides the offline planning journey — profile →
// partition → allocate → manifest — that cmd/offctl and the CI/CD stages
// expose to developers.
package core

import (
	"fmt"

	"offload/internal/adapt"
	"offload/internal/cloudvm"
	"offload/internal/dag"
	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/fault"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/sim"
	"offload/internal/trace"
	"offload/internal/workload"
)

// PolicyName selects a placement policy.
type PolicyName string

// The available policies.
const (
	PolicyLocalOnly     PolicyName = "local-only"
	PolicyEdgeAll       PolicyName = "edge-all"
	PolicyCloudAll      PolicyName = "cloud-all"
	PolicyVMAll         PolicyName = "vm-all"
	PolicyRandom        PolicyName = "random"
	PolicyThreshold     PolicyName = "threshold"
	PolicyDeadlineAware PolicyName = "deadline-aware"
	PolicyBanditUCB     PolicyName = "bandit-ucb"
	PolicyBanditGreedy  PolicyName = "bandit-greedy"
)

// DefaultThresholdCycles is the offloading threshold the "threshold"
// policy uses: 5 Gcycles, a couple of seconds of mid-range-phone work.
const DefaultThresholdCycles = 5e9

// AllPolicies lists the policy names in canonical order.
func AllPolicies() []PolicyName {
	return []PolicyName{
		PolicyLocalOnly, PolicyEdgeAll, PolicyCloudAll,
		PolicyVMAll, PolicyRandom, PolicyThreshold, PolicyDeadlineAware,
		PolicyBanditUCB, PolicyBanditGreedy,
	}
}

// BatchConfig enables delay-tolerant batching of serverless tasks.
type BatchConfig struct {
	Size    int
	MaxWait sim.Duration
}

// Config assembles a complete offloading environment. Nil substrate
// configs leave that substrate out; Device and at least one remote
// substrate are required for offloading policies to differ from local.
type Config struct {
	Seed uint64

	Device device.Config

	Edge     *edge.Config
	EdgePath *network.Config

	Serverless *serverless.Config
	CloudPath  *network.Config

	VM *cloudvm.Config

	Policy PolicyName

	// PredictionNoise perturbs demand predictions (E10 knob). Zero gives
	// the adaptive per-app predictor exact feedback.
	PredictionNoise float64

	// ArrivalRateHint feeds the function pool's cold-start estimate.
	ArrivalRateHint float64

	// RedeployTolerance makes the function pool re-size a deployed
	// function when predicted demand drifts by more than this factor.
	// Zero sizes each function once, from the first prediction.
	RedeployTolerance float64

	// ProvisionedConcurrency pre-warms this many environments per deployed
	// function, trading a capacity fee for zero cold starts.
	ProvisionedConcurrency int

	// Batch, when non-nil, wraps the scheduler in a Batcher.
	Batch *BatchConfig

	// OffPeakShift delays slack-rich serverless tasks into the platform's
	// off-peak pricing window (requires a price schedule on the platform).
	// Mutually exclusive with Batch.
	OffPeakShift bool

	// Retries enables transparent retries of transient infrastructure
	// failures: total attempts per task (values <= 1 disable retries),
	// with exponential backoff starting at RetryBackoff, capped at
	// RetryMaxBackoff (zero leaves it uncapped). RetryJitter draws each
	// delay uniformly from [0, backoff) on a dedicated rng stream. The
	// three knobs are rejected unless Retries > 1.
	Retries         int
	RetryBackoff    sim.Duration
	RetryMaxBackoff sim.Duration
	RetryJitter     bool

	// Fault, EdgeFault and VMFault install composite fault models
	// (correlated outages, scheduled windows, stragglers — see
	// internal/fault) on the serverless platform, the edge site and the
	// VM fleet. A non-nil Fault replaces Serverless.FailureRate.
	Fault     *fault.Config
	EdgeFault *fault.Config
	VMFault   *fault.Config

	// Resilience enables the scheduler's client-side resilience layer:
	// per-attempt timeouts, hedged requests, circuit breakers and
	// fallback execution. See sched.Resilience.
	Resilience *sched.Resilience

	// LocalDVFSMinScale enables per-task DVFS for local executions: tasks
	// run at the slowest frequency (floored here, in (0,1]) that still
	// meets their deadline. Zero disables.
	LocalDVFSMinScale float64

	// DailyBudgetUSD caps serverless spending per virtual day: once spent,
	// serverless-bound tasks fall back to free capacity. Zero disables.
	DailyBudgetUSD float64

	// Adapt configures the online adaptive layer (internal/adapt). For the
	// bandit-ucb / bandit-greedy policies it parameterises the bandit
	// (nil takes adapt.DefaultConfig); for any other policy a non-nil
	// Adapt wraps the policy with the configured memory tuning, drift
	// detection and admission control. The layer is strictly opt-in: a nil
	// Adapt with a non-bandit policy leaves every code path and rng stream
	// exactly as before.
	Adapt *adapt.Config

	// Regions homes each remote substrate in a named region and enables
	// the regional fault/failover machinery. Strictly opt-in: nil leaves
	// every code path and rng stream exactly as before.
	Regions *RegionsConfig

	// DAG enables precedence-aware job submission (SubmitJob /
	// SubmitJobStream) through an internal/dag Orchestrator. Strictly
	// opt-in and randomness-free: nil changes no code path or rng stream.
	// Mutually exclusive with Batch and OffPeakShift, whose wrappers the
	// orchestrator's node dispatches would bypass.
	DAG *DAGConfig

	// ShardCount partitions a fleet-scale run (NewShardedFleet) across
	// this many worker shards advancing in lockstep epochs against a
	// hub engine that owns the shared substrates — see sim.ShardedEngine.
	// 0 and 1 both mean one shard. Results are byte-identical at every
	// shard count: the sharded fleet keys all randomness per UE, never
	// per shard. NewSystem, NewServer and NewFleet reject a count above
	// one.
	ShardCount int
}

// DefaultShardInterval is the sharded fleet's conservative-barrier epoch
// width: cross-shard messages (remote executions and their replies) are
// delivered at the next multiple of it. Half a simulated second is well
// under the seconds-scale transfer+execution times of the workload mix,
// so barrier quantisation is negligible against non-time-critical
// deadlines.
const DefaultShardInterval sim.Duration = 0.5

// RegionsConfig places the remote substrates on a map of named regions,
// attaches correlated regional fault schedules, and (optionally) turns on
// the scheduler's failover layer. Empty region names leave that substrate
// region-less.
type RegionsConfig struct {
	// Edge, Serverless and VM name the region each substrate is homed in.
	Edge       string
	Serverless string
	VM         string

	// Schedules lists correlated fault schedules, one per region. Every
	// substrate homed in a scheduled region gets a regional injector
	// (chained in front of its own fault model) built from the schedule.
	Schedules []fault.RegionSchedule

	// Failover, when non-nil, enables the scheduler's regional failover
	// layer (see sched.Failover); its Regions map is filled in from this
	// config when left unset.
	Failover *sched.Failover
}

// regionOf returns the configured region of a placement ("" = none).
func (rc *RegionsConfig) regionOf(p model.Placement) string {
	switch p {
	case model.PlaceEdge:
		return rc.Edge
	case model.PlaceFunction:
		return rc.Serverless
	case model.PlaceVM:
		return rc.VM
	}
	return ""
}

// failover returns the failover layer's configuration with its Regions
// map filled in from this config when left unset. Failover draws no
// randomness.
func (rc *RegionsConfig) failover() sched.Failover {
	fo := *rc.Failover
	if fo.Regions == nil {
		fo.Regions = map[model.Placement]string{}
		for _, p := range model.AllPlacements() {
			if name := rc.regionOf(p); name != "" {
				fo.Regions[p] = name
			}
		}
	}
	return fo
}

// DefaultConfig is a smartphone on WiFi/LAN with every substrate present
// and the deadline-aware policy: the configuration the examples use.
func DefaultConfig() Config {
	edgeCfg := edge.SmallSite()
	edgePath := network.LANEdge()
	slCfg := serverless.LambdaLike()
	cloudPath := network.WiFiCloud()
	vmCfg := cloudvm.C5Large()
	return Config{
		Seed:       1,
		Device:     device.Smartphone(),
		Edge:       &edgeCfg,
		EdgePath:   &edgePath,
		Serverless: &slCfg,
		CloudPath:  &cloudPath,
		VM:         &vmCfg,
		Policy:     PolicyDeadlineAware,
	}
}

// System is a live assembled environment.
type System struct {
	Eng *sim.Engine
	Src *rng.Source
	Env *sched.Env

	Scheduler *sched.Scheduler
	Batcher   *sched.Batcher        // nil unless batching is configured
	Shifter   *sched.OffPeakShifter // nil unless off-peak shifting is on
	Jobs      *dag.Orchestrator     // nil unless a DAG block is configured

	observer *Observer           // nil unless Observe was called
	spanRec  *trace.SpanRecorder // nil unless EnableSpans was called
	adapt    *adapt.Controller   // nil unless the adaptive layer is on
	jobErr   error               // first in-stream job submission error
	cfg      Config
}

// NewSystem builds a System from the configuration.
func NewSystem(cfg Config) (*System, error) { return newSystem(cfg, scopeSystem) }

// newSystem checks cfg for the calling constructor's scope and assembles
// the one UE over its own substrates. Its source's splits follow newUE's
// order, then the fault injectors' and the regional injectors'.
func newSystem(cfg Config, sc scope) (*System, error) {
	if err := cfg.check(sc); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	src := rng.New(cfg.Seed)
	sub := newSubstrates(&cfg, eng, 1)
	s, ctrl, err := newUE(&cfg, eng, src, &sub, nil, new(enginePools))
	if err != nil {
		return nil, err
	}
	sys := &System{Eng: eng, Src: src, Env: s.Env(), Scheduler: s, adapt: ctrl, cfg: cfg}
	if cfg.Batch != nil {
		if sys.Batcher, err = sched.NewBatcher(s, cfg.Batch.Size, cfg.Batch.MaxWait); err != nil {
			return nil, err
		}
	}
	if cfg.OffPeakShift {
		if sys.Shifter, err = sched.NewOffPeakShifter(s); err != nil {
			return nil, err
		}
	}
	if cfg.DAG != nil {
		placer, err := cfg.DAG.placer()
		if err != nil {
			return nil, err
		}
		// The orchestrator draws no randomness and adds no events of its
		// own, so configurations without DAG keep byte-identical streams.
		sys.Jobs = dag.NewOrchestrator(s, placer)
	}
	for _, f := range []struct {
		p   model.Placement
		cfg *fault.Config
	}{{model.PlaceFunction, cfg.Fault}, {model.PlaceEdge, cfg.EdgeFault}, {model.PlaceVM, cfg.VMFault}} {
		if f.cfg == nil {
			continue
		}
		inj, err := fault.New(src.Split(), *f.cfg)
		if err != nil {
			return nil, err
		}
		if inj != nil {
			sys.substrate(f.p).SetFaultInjector(inj)
		}
	}
	if cfg.Regions != nil {
		if err := installRegions(sys, src, cfg.Regions); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// installRegions chains a regional fault injector in front of each
// substrate homed in a scheduled region. Substrates are visited in
// canonical placement order, one rng split per (substrate, schedule)
// pair, and these splits come after every other split NewSystem makes —
// so configurations without Regions keep byte-identical streams.
func installRegions(sys *System, src *rng.Source, rc *RegionsConfig) error {
	byRegion := make(map[string]fault.RegionSchedule, len(rc.Schedules))
	for _, sch := range rc.Schedules {
		if err := sch.Validate(); err != nil {
			return err
		}
		if _, dup := byRegion[sch.Region]; dup {
			return fmt.Errorf("core: duplicate region schedule for %q", sch.Region)
		}
		byRegion[sch.Region] = sch
	}
	used := make(map[string]bool, len(byRegion))
	for _, p := range model.AllPlacements() {
		name := rc.regionOf(p)
		sch, ok := byRegion[name]
		if name == "" || !ok {
			continue // a region without a schedule is simply healthy
		}
		used[name] = true
		rinj, err := fault.New(src.Split(), sch.Config())
		if err != nil {
			return err
		}
		sub := sys.substrate(p)
		sub.SetFaultInjector(fault.Chain(rinj, sub.FaultInjector()))
	}
	for _, sch := range rc.Schedules {
		if !used[sch.Region] {
			return fmt.Errorf("core: region schedule for %q matches no substrate", sch.Region)
		}
	}
	return nil
}

// faultable is a remote substrate that takes a fault model.
type faultable interface {
	FaultInjector() fault.Injector
	SetFaultInjector(fault.Injector)
}

// substrate returns the substrate serving remote placement p, or nil.
func (s *System) substrate(p model.Placement) faultable {
	switch {
	case p == model.PlaceEdge && s.Env.Edge != nil:
		return s.Env.Edge
	case p == model.PlaceFunction && s.Env.Functions != nil:
		return s.Platform()
	case p == model.PlaceVM && s.Env.VM != nil:
		return s.Env.VM
	}
	return nil
}

// buildPolicy resolves the configured policy, constructing the adaptive
// controller for env when the policy is a bandit or an Adapt block asks
// for the wrap. The controller (nil otherwise) is also returned so the
// System can expose its learned state. Only bandit policies draw from src
// here — configurations without them consume the stream exactly as before.
func buildPolicy(cfg *Config, src *rng.Source, env *sched.Env) (sched.Policy, *adapt.Controller, error) {
	acfg := adapt.DefaultConfig()
	if cfg.Adapt != nil {
		acfg = *cfg.Adapt
	}
	switch cfg.Policy {
	case PolicyBanditUCB, PolicyBanditGreedy:
		kind := adapt.BanditUCB
		if cfg.Policy == PolicyBanditGreedy {
			kind = adapt.BanditGreedy
		}
		ctrl, err := adapt.NewBandit(kind, acfg, src.Split(), env)
		if err != nil {
			return nil, nil, err
		}
		return ctrl, ctrl, nil
	}
	base, err := buildStaticPolicy(cfg.Policy, src)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Adapt == nil {
		return base, nil, nil
	}
	ctrl, err := adapt.Wrap(base, acfg, env)
	if err != nil {
		return nil, nil, err
	}
	return ctrl, ctrl, nil
}

func buildStaticPolicy(name PolicyName, src *rng.Source) (sched.Policy, error) {
	switch name {
	case PolicyLocalOnly, "":
		return sched.LocalOnly{}, nil
	case PolicyEdgeAll:
		return sched.EdgeAll{}, nil
	case PolicyCloudAll:
		return sched.CloudAll{}, nil
	case PolicyVMAll:
		return sched.VMAll{}, nil
	case PolicyRandom:
		return &sched.Random{Src: src.Split()}, nil
	case PolicyThreshold:
		return &sched.Threshold{Cycles: DefaultThresholdCycles}, nil
	case PolicyDeadlineAware:
		return sched.NewDeadlineAware(), nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q", name)
	}
}

// Submit routes one task through the configured scheduler (or its
// batching / off-peak-shifting wrapper).
func (s *System) Submit(task *model.Task) {
	switch {
	case s.Batcher != nil:
		s.Batcher.Submit(task)
	case s.Shifter != nil:
		s.Shifter.Submit(task)
	default:
		s.Scheduler.Submit(task)
	}
}

// SubmitStream schedules count arrivals from the generator, drawing the
// tasks from the system's pool.
func (s *System) SubmitStream(arrivals workload.Arrivals, gen *workload.Generator, count int) {
	workload.StreamFrom(s.Eng, s.Env.Tasks, arrivals, gen, count, s.Submit)
}

// Run drives the simulation until no work remains, flushing any pending
// batches first.
func (s *System) Run() {
	if s.Batcher != nil {
		// Flush at the point all arrivals have been injected: run the
		// event queue, flush leftovers, and drain again.
		s.drain()
		s.Batcher.Flush()
	}
	s.drain()
	// Tasks still parked in the failover wait queue when the event queue
	// empties would never run (the outage outlasted the workload): the
	// ladder localizes them instead of dropping them.
	for s.Scheduler.FlushFailover() > 0 {
		s.drain()
	}
}

// drain runs the event queue to empty, interleaving observer samples when
// one is attached.
func (s *System) drain() {
	if s.observer != nil {
		s.observer.drive()
		return
	}
	s.Eng.Run()
}

// Stats returns the scheduler's aggregate statistics.
func (s *System) Stats() *sched.Stats { return s.Scheduler.Stats() }

// Policy returns the configured placement policy name.
func (s *System) Policy() PolicyName { return s.cfg.Policy }

// EnableSpans subscribes a span recorder to the lifecycle stream and
// returns it. Call before Run. Idempotent: a second call returns the
// recorder already subscribed. Span recording is observability only — it
// adds no events and draws no randomness, so enabling it never changes
// simulated results (TestSpansAreInert).
func (s *System) EnableSpans() *trace.SpanRecorder {
	if s.spanRec == nil {
		s.spanRec = trace.NewSpanRecorder()
		s.spanRec.SetMeta("run", string(s.cfg.Policy))
		s.Env.Events.Subscribe(s.spanRec)
	}
	return s.spanRec
}

// Adapt returns the adaptive-layer controller, or nil when the
// configuration did not enable one.
func (s *System) Adapt() *adapt.Controller { return s.adapt }

// SpanSet returns the causal spans recorded so far, or nil when
// EnableSpans was never called.
func (s *System) SpanSet() *trace.SpanSet {
	if s.spanRec == nil {
		return nil
	}
	return s.spanRec.Set()
}

// Platform returns the serverless platform, or nil.
func (s *System) Platform() *serverless.Platform {
	if s.Env.Functions == nil {
		return nil
	}
	return s.Env.Functions.Platform()
}

// InfrastructureCostUSD returns money that accrued outside per-task bills:
// edge provisioning, VM instance-hours, and serverless provisioned
// concurrency capacity fees up to the current virtual time.
func (s *System) InfrastructureCostUSD() float64 {
	total := 0.0
	if s.Env.Edge != nil {
		total += s.Env.Edge.ProvisionedCostUSD()
	}
	if s.Env.VM != nil {
		total += s.Env.VM.AccruedCostUSD()
	}
	if p := s.Platform(); p != nil {
		total += p.ProvisionedCostUSD()
	}
	return total
}
