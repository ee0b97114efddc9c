package exp

import (
	"fmt"

	"offload/internal/core"
	"offload/internal/edge"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/workload"
)

// e22Rate is the job arrival rate: one DAG application run every ~20 s,
// so jobs mostly run in isolation and the table contrasts precedence
// structure, not cross-job queueing.
const e22Rate = 0.05

// e22Shapes are the three DAG families E22 races. The node population is
// identical across shapes — same demand distribution, same 2 MB
// inter-stage payloads — only the precedence structure changes: a serial
// chain (no parallelism to exploit), a wide fork-join (14 independent
// branches), and a layered graph in between.
var e22Shapes = []struct {
	name string
	tmpl workload.JobTemplate
}{
	{"narrow", e22Template(workload.ShapePipeline, 8, 0)},
	{"wide", e22Template(workload.ShapeForkJoin, 16, 0)},
	{"deep", e22Template(workload.ShapeLayered, 12, 3)},
}

// e22Template sizes one node population: ~0.75 s of local compute per
// node behind 2 MB precedence payloads — light enough that shipping a
// node is far cheaper than the device energy to compute it.
func e22Template(shape workload.JobShape, nodes, width int) workload.JobTemplate {
	return workload.JobTemplate{
		App:         "dag-" + string(shape),
		Shape:       shape,
		Nodes:       nodes,
		Width:       width,
		MeanCycles:  1.5e9,
		CyclesSigma: 0.2,
		EdgeBytes:   2 * model.MB,
		InputBytes:  4 * model.MB,
		OutputBytes: 1 * model.MB,
		MemoryBytes: 512 * model.MB,
		Deadline:    3600, // generous: non-time-critical jobs
	}
}

// e22Config is the cell's substrate: the default smartphone+serverless
// system, plus a deliberately tiny on-premises edge box — one 2-core
// machine at $0.10/h. The box is the cheapest place to run a node, so
// the precedence-oblivious deadline-aware baseline (generous deadlines →
// pure cost minimisation) sends every ready node there and a wide job's
// branches serialise on its two cores. The rank placer prices the same
// substrate by earliest finish instead: it claims the box and the
// device's cores, then spills the remaining parallel branches to
// serverless — buying makespan with money, the classic time/cost trade.
func e22Config(placement core.DAGPlacement) core.Config {
	cfg := core.DefaultConfig()
	cfg.Policy = core.PolicyDeadlineAware
	cfg.ArrivalRateHint = e22Rate
	edgeCfg := edge.Config{
		Name:            "edge-nano",
		Servers:         1,
		Cores:           2,
		CPUHz:           3 * model.GHz,
		HourlyCostUSD:   0.10,
		MemoryPerServer: 8 * model.GB,
	}
	cfg.Edge = &edgeCfg
	cfg.VM = nil
	cfg.DAG = &core.DAGConfig{Placement: placement}
	return cfg
}

// e22Placements are the two placers under test.
var e22Placements = []core.DAGPlacement{core.DAGOblivious, core.DAGRank}

// e22Cell is one (shape, placement) cell aggregated over replications.
type e22Cell struct {
	jobs      uint64
	failed    uint64
	meanMkS   float64
	p95MkS    float64
	critS     float64
	slackS    float64
	nodeUSD   float64
	completed uint64
}

// e22RunCell runs s.RandomSeeds replications of one cell and averages.
// Every replication self-checks the orchestrator's accounting invariant:
// per-job critical-path seconds must partition the makespan exactly.
func e22RunCell(s Scale, shape workload.JobTemplate, placement core.DAGPlacement) (e22Cell, error) {
	jobsPerRep := s.Tasks / 10
	if jobsPerRep < 4 {
		jobsPerRep = 4
	}
	var cell e22Cell
	for rep := 0; rep < s.RandomSeeds; rep++ {
		cfg := e22Config(placement)
		cfg.Seed = rng.Derive(s.Seed, uint64(rep))
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return e22Cell{}, err
		}
		gen, err := workload.NewJobGenerator(sys.Src.Split(), shape)
		if err != nil {
			return e22Cell{}, err
		}
		arrivals := workload.NewPoisson(sys.Src.Split(), e22Rate)
		if err := sys.SubmitJobStream(arrivals, gen, jobsPerRep); err != nil {
			return e22Cell{}, err
		}
		sys.Run()
		if err := sys.JobErr(); err != nil {
			return e22Cell{}, err
		}
		st := sys.JobStats()
		if st.Jobs != uint64(jobsPerRep) {
			return e22Cell{}, fmt.Errorf("exp: e22: %d jobs settled, want %d", st.Jobs, jobsPerRep)
		}
		if drift := st.MaxDriftS(); drift > 1e-9 {
			return e22Cell{}, fmt.Errorf(
				"exp: e22: critical-path drift %g s exceeds 1e-9 (%s/%s rep %d)",
				drift, shape.App, placement, rep)
		}
		cell.jobs += st.Jobs
		cell.failed += st.Failed
		cell.meanMkS += st.MeanMakespanS()
		cell.p95MkS += st.P95MakespanS()
		cell.critS += st.MeanCritPathS()
		cell.slackS += st.MeanSlackS()
		cell.completed += st.NodesCompleted
		if st.NodesCompleted > 0 {
			cell.nodeUSD += st.CostUSD / float64(st.NodesCompleted)
		}
	}
	reps := float64(s.RandomSeeds)
	cell.meanMkS /= reps
	cell.p95MkS /= reps
	cell.critS /= reps
	cell.slackS /= reps
	cell.nodeUSD /= reps
	return cell, nil
}

// E22DAGPlacement races precedence-oblivious node release against
// HEFT-style upward-rank list scheduling across three DAG shapes.
//
// Expected shape: on the narrow chain the two placers tie — there is no
// parallelism for rank to find, and the critical path equals the
// makespan. On the wide fork-join the oblivious baseline prices every
// branch onto the 4-core device and serialises, while rank spreads
// branches across device and edge for a decisively shorter makespan (at
// some dollar and energy premium — the classic time/cost trade). The
// layered shape lands between the two. Per-job critical-path seconds
// partition the makespan exactly in every cell; the run aborts if the
// books are off by more than a nanosecond.
func E22DAGPlacement(s Scale) ([]*metrics.Table, error) {
	tbl := metrics.NewTable(
		"E22: DAG jobs — precedence-oblivious release vs upward-rank placement",
		"shape", "placement", "jobs", "mean_mk_s", "p95_mk_s", "crit_s", "slack_s", "node_usd", "fail").
		Kinds(metrics.Auto, metrics.Auto, metrics.Auto, metrics.Seconds, metrics.Seconds, metrics.Seconds, metrics.Seconds, metrics.USD)
	for _, shape := range e22Shapes {
		for _, placement := range e22Placements {
			cell, err := e22RunCell(s, shape.tmpl, placement)
			if err != nil {
				return nil, err
			}
			tbl.Add(shape.name, placement, cell.jobs, cell.meanMkS, cell.p95MkS, cell.critS, cell.slackS,
				cell.nodeUSD, cell.failed)
		}
	}
	return []*metrics.Table{tbl}, nil
}
