// Package exp implements the evaluation suite E1–E20 defined in DESIGN.md.
// The published paper is a doctoral-symposium abstract with no tables or
// figures, so these experiments ARE the reproduction target: each one
// exercises a specific claim of the abstract, and EXPERIMENTS.md records
// the expected shape against what this code measures.
//
// Every experiment is a pure function from a Scale (how much work to do)
// to one or more metrics.Tables, so cmd/offbench, bench_test.go and the
// unit tests all share one implementation.
package exp

import "offload/internal/metrics"

// Scale controls how much work an experiment does. Quick keeps unit tests
// and smoke runs fast; Full is what offbench and the recorded
// EXPERIMENTS.md numbers use.
type Scale struct {
	Tasks       int    // tasks per cell
	RandomSeeds int    // replications / random instances
	Devices     int    // E9/E21 fleet bound
	Seed        uint64 // base RNG seed

	// Shards partitions the sharded-engine experiments (E21) across this
	// many worker shards (core.ShardedFleet). 0 and 1 both mean one
	// shard; results are byte-identical at every value, which the
	// determinism gate exploits by diffing -shards 1 against -shards 7.
	Shards int

	// Obs, when non-nil, makes every simulated cell sample a time series
	// and bank its end-of-run metrics registry. Observability only — it
	// never changes table cells. The Runner sets this per experiment; see
	// Runner.ObserveEvery.
	Obs *Observation
}

// Quick is the CI-friendly scale.
func Quick() Scale {
	return Scale{Tasks: 40, RandomSeeds: 3, Devices: 50, Seed: 1}
}

// Full is the scale the recorded results use.
func Full() Scale {
	return Scale{Tasks: 400, RandomSeeds: 10, Devices: 500, Seed: 1}
}

// Experiment is one runnable entry of the suite.
//
// Run is a pure function of its Scale: it must not read or write any
// package-level mutable state, so that the Runner can execute experiments
// concurrently and still produce bit-identical tables. Expected failures
// (bad configuration, infeasible allocation) come back as errors;
// panics are reserved for programming bugs, and the Runner converts them
// into errors rather than crashing the suite.
type Experiment struct {
	ID    string
	Seq   int // canonical position in the registry; seeds derive from it
	Claim string
	Run   func(Scale) ([]*metrics.Table, error)
}

// Registry returns the full suite in canonical order. Each experiment's
// Seq is its index here; rng.Derive(baseSeed, Seq) gives it a private
// seed stream regardless of which subset of the suite runs or in what
// order — see Runner.
func Registry() []Experiment {
	reg := []Experiment{
		{ID: "E1", Claim: "cloud serverless suffices for non-time-critical workloads", Run: E1Placement},
		{ID: "E2", Claim: "serverless resource allocation finds the cost-optimal memory", Run: E2MemorySweep},
		{ID: "E3", Claim: "min-cut code partitioning is optimal and cheap", Run: E3Partition},
		{ID: "E4", Claim: "cold starts are managed by keep-alive awareness and batching", Run: E4ColdStart},
		{ID: "E5", Claim: "offloading extends device battery life", Run: E5Energy},
		{ID: "E6", Claim: "with slack, edge's latency advantage stops mattering", Run: E6DeadlineSlack},
		{ID: "E7", Claim: "serverless beats provisioned infrastructure at low utilisation", Run: E7CostCrossover},
		{ID: "E8", Claim: "offloading integrates into CI/CD with modest overhead", Run: E8Pipeline},
		{ID: "E9", Claim: "the framework scales to fleets of devices", Run: E9Scalability},
		{ID: "E10", Claim: "allocation degrades gracefully with demand-prediction error", Run: E10PredictionError},
		{ID: "E11", Claim: "delay tolerance converts into money under diurnal pricing", Run: E11OffPeak},
		{ID: "E12", Claim: "transient infrastructure failures are absorbed by retries", Run: E12Failures},
		{ID: "E13", Claim: "DVFS narrows but does not close the gap to offloading", Run: E13DVFS},
		{ID: "E14", Claim: "serverless elasticity absorbs bursts fixed capacity cannot", Run: E14Bursts},
		{ID: "E15", Claim: "deployment granularity is an operational choice, not a cost cliff", Run: E15Granularity},
		{ID: "E16", Claim: "resource allocation must be provider-aware (billing granularity)", Run: E16Providers},
		{ID: "E17", Claim: "client-side resilience absorbs correlated cloud outages", Run: E17Resilience},
		{ID: "E18", Claim: "span-level attribution explains completion time and accounts every dollar", Run: E18Attribution},
		{ID: "E19", Claim: "online adaptation tracks regime drift within bounded regret of the static-best oracle", Run: E19Adaptive},
		{ID: "E20", Claim: "regional failover with graceful degradation survives disasters fail-fast cannot", Run: E20Failover},
		{ID: "E21", Claim: "the sharded engine drives million-UE flash crowds deterministically at any shard count", Run: E21FlashCrowd},
		{ID: "E22", Claim: "precedence-aware rank placement beats oblivious release on wide DAG jobs", Run: E22DAGPlacement},
	}
	for i := range reg {
		reg[i].Seq = i
	}
	return reg
}
