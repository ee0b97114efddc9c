// Package offload is a framework for computational offloading of
// non-time-critical applications, after Patsch, "Computational Offloading
// for Non-Time-Critical Applications" (ICDCS 2022).
//
// The premise: when a workload tolerates seconds-to-hours of completion
// time, the latency advantage of edge computing stops paying for its
// infrastructure, and the right offloading target is cloud serverless —
// provided the framework (1) determines each component's computational
// demand, (2) partitions the application into device-side and offloadable
// parts, (3) allocates serverless resources cost-optimally, and (4) wires
// all of that into the CI/CD pipeline. This package exposes those four
// capabilities plus the simulation substrates used to evaluate them.
//
// # Quick start
//
//	sys, err := offload.NewSystem(offload.DefaultConfig())
//	gen, err := offload.StandardMix(sys.Src.Split())
//	sys.SubmitStream(offload.NewPoisson(sys.Src.Split(), 0.5), gen, 1000)
//	sys.Run()
//	fmt.Println(sys.Stats().CostPerTask())
//
// # Offline planning
//
//	plan, err := offload.PlanApp(offload.SciBatch(), offload.PlanOptions{
//		Device:     offload.Smartphone(),
//		Serverless: offload.LambdaLike(),
//		CloudPath:  offload.WiFiCloud(),
//	})
//
// The deeper building blocks live in internal/: the discrete-event kernel
// (internal/sim), the substrates (device, network, edge, serverless,
// cloudvm), the algorithms (profile, partition, alloc, sched) and the
// pipeline integration (cicd).
package offload

import (
	"offload/internal/adapt"
	"offload/internal/callgraph"
	"offload/internal/chain"
	"offload/internal/cicd"
	"offload/internal/cloudvm"
	"offload/internal/core"
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

// Core user journey.
type (
	// Config assembles a complete offloading environment.
	Config = core.Config
	// System is a live assembled environment.
	System = core.System
	// BatchConfig enables delay-tolerant batching of serverless tasks.
	BatchConfig = core.BatchConfig
	// PolicyName selects a placement policy.
	PolicyName = core.PolicyName
	// Plan is the offline artefact for one application.
	Plan = core.Plan
	// PlanOptions configures the offline planning journey.
	PlanOptions = core.PlanOptions
	// Weights converts seconds, joules and dollars into one objective.
	Weights = core.Weights
)

// Placement policies.
const (
	PolicyLocalOnly     = core.PolicyLocalOnly
	PolicyEdgeAll       = core.PolicyEdgeAll
	PolicyCloudAll      = core.PolicyCloudAll
	PolicyVMAll         = core.PolicyVMAll
	PolicyRandom        = core.PolicyRandom
	PolicyThreshold     = core.PolicyThreshold
	PolicyDeadlineAware = core.PolicyDeadlineAware
	PolicyBanditUCB     = core.PolicyBanditUCB
	PolicyBanditGreedy  = core.PolicyBanditGreedy
)

// Online adaptive layer (internal/adapt): bandit placement, runtime
// memory tuning, drift detection and admission control.
type (
	// AdaptConfig tunes the adaptive layer; set Config.Adapt to enable it
	// for non-bandit policies (the bandit policies enable it implicitly).
	AdaptConfig = adapt.Config
	// AdaptDriftConfig tunes the per-backend Page–Hinkley drift detector.
	AdaptDriftConfig = adapt.DriftConfig
	// AdaptAdmissionConfig tunes the admission controller.
	AdaptAdmissionConfig = adapt.AdmissionConfig
)

// DefaultAdaptConfig enables every adaptive feature with the package
// defaults.
func DefaultAdaptConfig() AdaptConfig { return adapt.DefaultConfig() }

// Regional failover layer (internal/fault + internal/sched): region
// naming, scheduled regional disasters, health tracking with re-homing
// and the graceful-degradation ladder. Set Config.Regions to use it.
type (
	// RegionsConfig names each substrate's region, schedules regional
	// disasters and enables the failover layer; re-homing prices the
	// backbone with model.DefaultInterRegionLink.
	RegionsConfig = core.RegionsConfig
	// RegionSchedule scripts one region's outages and brown-outs.
	RegionSchedule = fault.RegionSchedule
	// FaultWindow is one [Start, Start+Duration) fault window.
	FaultWindow = fault.Window
	// FaultBrownout caps capacity to a fraction inside a window.
	FaultBrownout = fault.Brownout
	// Failover configures the scheduler's regional failover layer.
	Failover = sched.Failover
	// Ladder is the graceful-degradation state machine.
	Ladder = sched.Ladder
	// FailoverStats counts what the failover layer did to tasks.
	FailoverStats = sched.FailoverStats
	// RegionSnapshot is one region's health ledger at a point in time.
	RegionSnapshot = sched.RegionSnapshot
)

// NewSystem builds a System from the configuration.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// Report is the run summary every consumer reads from the same place: the
// examples and the offloadd daemon see the same numbers.
type Report = core.Report

// Observer samples a live System at a fixed simulated-time interval.
type Observer = core.Observer

// Recorder keeps one record per settled task and writes them as the JSONL
// trace that `offctl run -replay` reads. A System keeps none by default;
// subscribe one to the lifecycle stream with sys.Env.Events.Subscribe(rec)
// before the first submit.
type Recorder = trace.Recorder

// Fleet simulates many devices against shared remote infrastructure.
type Fleet = core.Fleet

// FleetStats aggregates statistics across a fleet's schedulers.
type FleetStats = core.FleetStats

// NewFleet builds n devices from cfg's device template, sharing the
// configured serverless region, edge site and VM fleet.
func NewFleet(cfg Config, n int) (*Fleet, error) { return core.NewFleet(cfg, n) }

// ShardedFleet is Fleet at million-UE scale: UEs partitioned across
// Config.ShardCount worker shards in lockstep epochs against a
// conservative barrier at the hub-owned shared substrates, with results
// byte-identical at every shard count.
type ShardedFleet = core.ShardedFleet

// NewShardedFleet builds n devices partitioned across cfg.ShardCount
// shards (0 and 1 both mean one shard, the serial reference).
func NewShardedFleet(cfg Config, n int) (*ShardedFleet, error) {
	return core.NewShardedFleet(cfg, n)
}

// DefaultConfig is a smartphone with every substrate present and the
// deadline-aware policy.
func DefaultConfig() Config { return core.DefaultConfig() }

// AllPolicies lists the policy names in canonical order.
func AllPolicies() []PolicyName { return core.AllPolicies() }

// PlanApp runs the offline journey: profile → partition → allocate →
// manifest.
func PlanApp(g *Graph, opts PlanOptions) (*Plan, error) { return core.PlanApp(g, opts) }

// DefaultWeights balances latency, energy and money for a battery-powered
// consumer device.
func DefaultWeights() Weights { return core.DefaultWeights() }

// Domain types.
type (
	// Task is one unit of offloadable work.
	Task = model.Task
	// TaskID identifies a task within a run.
	TaskID = model.TaskID
	// Outcome is the end-to-end record for a completed task.
	Outcome = model.Outcome
	// Placement says where a task's computation ran.
	Placement = model.Placement
)

// Placements.
const (
	PlaceLocal    = model.PlaceLocal
	PlaceEdge     = model.PlaceEdge
	PlaceFunction = model.PlaceFunction
	PlaceVM       = model.PlaceVM
)

// Application graphs.
type (
	// Graph is a weighted application component graph.
	Graph = callgraph.Graph
	// Component is one vertex of an application graph.
	Component = callgraph.Component
	// GraphEdge is one interaction between components.
	GraphEdge = callgraph.Edge
)

// NewGraph returns an empty application graph.
func NewGraph(name string) *Graph { return callgraph.New(name) }

// ParseGraph decodes a graph from the JSON spec format.
func ParseGraph(data []byte) (*Graph, error) { return callgraph.Parse(data) }

// Application templates.
var (
	// VideoTranscode is a background video-transcoding job.
	VideoTranscode = callgraph.VideoTranscode
	// MLBatch is nightly batch inference.
	MLBatch = callgraph.MLBatch
	// PhotoPipeline is a photo backup/enhancement pipeline.
	PhotoPipeline = callgraph.PhotoPipeline
	// ReportGen is business-report generation.
	ReportGen = callgraph.ReportGen
	// SciBatch is an overnight scientific batch job.
	SciBatch = callgraph.SciBatch
	// Templates returns all application templates keyed by name.
	Templates = callgraph.Templates
)

// DAG application offloading (internal/dag + internal/workload): jobs
// whose tasks carry precedence edges with data-transfer payloads,
// released through the scheduler as their predecessors complete. Set
// Config.DAG and submit with System.SubmitJob / System.SubmitJobStream.
type (
	// DAGConfig enables precedence-aware job submission on a System.
	DAGConfig = core.DAGConfig
	// DAGPlacement picks how a job's nodes are placed.
	DAGPlacement = core.DAGPlacement
	// Job is a validated directed acyclic graph of tasks.
	Job = dag.Job
	// JobNode is one task-to-be within a job.
	JobNode = dag.Node
	// JobEdge is one precedence constraint and its data payload.
	JobEdge = dag.Edge
	// JobResult is the per-job record: makespan, critical path, slack.
	JobResult = dag.Result
	// JobStats aggregates job results across a run.
	JobStats = dag.Stats
	// JobTemplate describes a population of generated DAG jobs.
	JobTemplate = workload.JobTemplate
	// JobGenerator draws deterministic random jobs from a template.
	JobGenerator = workload.JobGenerator
	// JobShape names a generated DAG family.
	JobShape = workload.JobShape
)

// The DAG placement modes and generator shape families.
const (
	DAGOblivious  = core.DAGOblivious
	DAGRank       = core.DAGRank
	ShapePipeline = workload.ShapePipeline
	ShapeForkJoin = workload.ShapeForkJoin
	ShapeLayered  = workload.ShapeLayered
)

// NewJob returns an empty DAG job with the given deadline in simulated
// seconds (0 = none).
func NewJob(app string, deadline float64) *Job { return dag.New(app, sim.Duration(deadline)) }

// NewJobGenerator returns a deterministic random-DAG generator over the
// template's shape family.
func NewJobGenerator(src *rng.Source, t JobTemplate) (*JobGenerator, error) {
	return workload.NewJobGenerator(src, t)
}

// JobFromGraph converts an application call graph into a DAG job,
// deriving per-node demand the same way TemplateFromGraph does.
func JobFromGraph(g *Graph) (*Job, error) { return workload.JobFromGraph(g) }

// Workload generation.
type (
	// Generator draws tasks from a weighted template mix.
	Generator = workload.Generator
	// Arrivals produces inter-arrival gaps.
	Arrivals = workload.Arrivals
	// TaskTemplate describes a population of tasks.
	TaskTemplate = workload.TaskTemplate
	// WeightedTemplate pairs a template with its share of a mix.
	WeightedTemplate = workload.WeightedTemplate
)

// StandardMix returns a generator over all five application templates.
func StandardMix(src *rng.Source) (*Generator, error) { return workload.StandardMix(src) }

// NewMix returns a generator over a weighted template mix.
func NewMix(src *rng.Source, mix []WeightedTemplate) (*Generator, error) {
	return workload.NewGenerator(src, mix)
}

// NewGenerator returns a generator over a single template.
func NewGenerator(src *rng.Source, t TaskTemplate) (*Generator, error) {
	return workload.NewGenerator(src, []WeightedTemplate{{Template: t, Weight: 1}})
}

// NewPoisson returns a Poisson arrival process with the given rate/s.
func NewPoisson(src *rng.Source, rate float64) Arrivals { return workload.NewPoisson(src, rate) }

// TemplateFromGraph derives a task template from an application graph.
func TemplateFromGraph(g *Graph) (TaskTemplate, error) { return workload.FromGraph(g) }

// NewRand returns a deterministic random source for the given seed.
func NewRand(seed uint64) *rng.Source { return rng.New(seed) }

// CI/CD integration.
type (
	// DeployOptions configures one CI/CD pipeline run.
	DeployOptions = core.DeployOptions
	// DeployResult is the outcome of one pipeline run.
	DeployResult = core.DeployResult
	// PipelineReport is a stage-by-stage pipeline report.
	PipelineReport = cicd.Report
	// Manifest records what a pipeline run deployed.
	Manifest = cicd.Manifest
)

// RunDeployPipeline runs the (optionally offload-integrated) deployment
// pipeline for an application on a fresh simulated serverless platform.
func RunDeployPipeline(g *Graph, opts DeployOptions) (DeployResult, error) {
	return core.RunDeployPipeline(g, opts)
}

// RunResult is one chain-executed application run: per-component timings,
// cut-edge transfers, money and device energy.
type RunResult = chain.Result

// SimulatePlan plans an application, deploys the manifest onto a fresh
// simulated platform, and executes runs application runs through the
// partitioned chain.
func SimulatePlan(g *Graph, opts PlanOptions, runs int) (*Plan, []RunResult, error) {
	return core.SimulatePlan(g, opts, runs)
}

// Substrate presets.
var (
	// Smartphone is a mid-range handset device configuration.
	Smartphone = device.Smartphone
	// IoTSensor is a constrained sensor-node device configuration.
	IoTSensor = device.IoTSensor
	// Laptop is a mains-powered developer laptop configuration.
	Laptop = device.Laptop
	// LambdaLike is an AWS-Lambda-calibrated serverless platform.
	LambdaLike = serverless.LambdaLike
	// EdgeSmallSite is an on-premises micro-datacenter.
	EdgeSmallSite = edge.SmallSite
	// VMC5Large is a fixed general-purpose cloud instance.
	VMC5Large = cloudvm.C5Large
	// VMAutoscaled is an elastic cloud-VM fleet.
	VMAutoscaled = cloudvm.Autoscaled
	// WiFiCloud is a WiFi-to-cloud-region network path.
	WiFiCloud = network.WiFiCloud
	// LTECloud is a cellular-to-cloud network path.
	LTECloud = network.LTECloud
	// LANEdge is a LAN path to an on-premises edge server.
	LANEdge = network.LANEdge
	// FiveGEdge is a 5G path to a MEC site.
	FiveGEdge = network.FiveGEdge
)
