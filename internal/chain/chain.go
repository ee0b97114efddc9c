// Package chain executes one application run as its partitioned component
// graph: pinned and local components run on the device, offloaded ones on
// their per-component serverless functions (the deployment a CI/CD
// manifest describes), and every edge that crosses the device/cloud
// boundary pays a transfer on the network path.
//
// This is the runtime counterpart of the offline plan — where the
// monolithic scheduler treats an app run as one aggregate task, the chain
// runner honours the partition's structure, which is what per-component
// deployment actually buys (and costs: per-request charges and cut-edge
// transfers). Experiment E15 quantifies that trade.
package chain

import (
	"fmt"

	"offload/internal/callgraph"
	"offload/internal/device"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/partition"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// Runner executes runs of one partitioned application.
type Runner struct {
	eng        *sim.Engine
	graph      *callgraph.Graph
	assignment partition.Assignment
	dev        *device.Device
	path       *network.Path
	functions  map[callgraph.ComponentID]*serverless.Function

	order []callgraph.ComponentID
}

// Config wires a Runner.
type Config struct {
	Graph      *callgraph.Graph
	Assignment partition.Assignment
	Device     *device.Device
	Path       *network.Path // device↔cloud path for cut edges
	// Functions maps offloaded component names to deployed functions;
	// every remote component must be present.
	Functions map[string]*serverless.Function
}

// New validates the wiring and precomputes the execution order
// (topological where the graph is acyclic; back edges — results returning
// to an earlier component — are treated as final transfers).
func New(eng *sim.Engine, cfg Config) (*Runner, error) {
	if eng == nil {
		return nil, fmt.Errorf("chain: nil engine")
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("chain: nil graph")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Assignment.Valid(cfg.Graph) {
		return nil, fmt.Errorf("chain: assignment invalid for graph %s", cfg.Graph.Name())
	}
	if cfg.Device == nil {
		return nil, fmt.Errorf("chain: nil device")
	}
	r := &Runner{
		eng:        eng,
		graph:      cfg.Graph,
		assignment: cfg.Assignment.Clone(),
		dev:        cfg.Device,
		path:       cfg.Path,
		functions:  make(map[callgraph.ComponentID]*serverless.Function),
	}
	needPath := false
	for i, remote := range cfg.Assignment {
		id := callgraph.ComponentID(i)
		if !remote {
			continue
		}
		name := cfg.Graph.Component(id).Name
		fn, ok := cfg.Functions[name]
		if !ok || fn == nil {
			return nil, fmt.Errorf("chain: no function deployed for remote component %q", name)
		}
		r.functions[id] = fn
	}
	for i := 0; i < cfg.Graph.NumEdges(); i++ {
		e := cfg.Graph.Edge(i)
		if cfg.Assignment[e.From] != cfg.Assignment[e.To] {
			needPath = true
		}
	}
	if needPath && cfg.Path == nil {
		return nil, fmt.Errorf("chain: partition has cut edges but no network path")
	}
	r.order = executionOrder(cfg.Graph)
	return r, nil
}

// executionOrder returns a Kahn topological order; components on cycles
// (typically results feeding back to the pinned anchor) keep their
// insertion order after the acyclic prefix.
func executionOrder(g *callgraph.Graph) []callgraph.ComponentID {
	n := g.Len()
	indeg := make([]int, n)
	adj := make([][]callgraph.ComponentID, n)
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		indeg[e.To]++
		adj[e.From] = append(adj[e.From], e.To)
	}
	var order []callgraph.ComponentID
	var queue []callgraph.ComponentID
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, callgraph.ComponentID(i))
		}
	}
	done := make([]bool, n)
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		order = append(order, c)
		done[c] = true
		for _, next := range adj[c] {
			indeg[next]--
			if indeg[next] == 0 && !done[next] {
				queue = append(queue, next)
			}
		}
	}
	// Cycle members (if any) in insertion order.
	for i := 0; i < n; i++ {
		if !done[i] {
			order = append(order, callgraph.ComponentID(i))
		}
	}
	return order
}

// ComponentResult is one component's execution within a run.
type ComponentResult struct {
	Name      string
	Remote    bool
	Start     sim.Time
	End       sim.Time
	Exec      model.ExecReport
	TransferS float64 // cut-edge transfer time attributed to this component's inputs
}

// Result is one complete application run.
type Result struct {
	App        string
	Start, End sim.Time

	Components []ComponentResult
	CutEdges   int
	BytesMoved int64

	CostUSD      float64
	EnergyMilliJ float64
	Failed       bool
}

// Duration returns the run's end-to-end wall time.
func (r Result) Duration() sim.Duration { return r.End.Sub(r.Start) }

// Run executes one application run, calling done from the simulation loop
// when the last component (and every trailing cut transfer) finished.
// Components execute sequentially in dependency order, as a single
// application run's critical path does; CallsPerRun is already folded
// into component and edge weights.
func (r *Runner) Run(done func(Result)) {
	if done == nil {
		panic("chain: Run with nil done")
	}
	res := &Result{App: r.graph.Name(), Start: r.eng.Now()}
	r.step(0, res, done)
}

// step executes the order[idx] component: first pull its cut in-edges,
// then execute, then recurse.
func (r *Runner) step(idx int, res *Result, done func(Result)) {
	if idx >= len(r.order) {
		r.finishTrailing(res, done)
		return
	}
	id := r.order[idx]
	comp := r.graph.Component(id)

	// Pull transfers: in-edges from the other side whose source already
	// ran (forward edges; back edges are settled at the end of the run).
	var pulls []callgraph.Edge
	for i := 0; i < r.graph.NumEdges(); i++ {
		e := r.graph.Edge(i)
		if e.To == id && r.assignment[e.From] != r.assignment[e.To] && r.ranBefore(e.From, idx) {
			pulls = append(pulls, e)
		}
	}
	r.transferAll(pulls, res, func(transferS float64) {
		start := r.eng.Now()
		task := &model.Task{
			App:              r.graph.Name(),
			Component:        comp.Name,
			Cycles:           comp.Cycles * comp.CallsPerRun,
			MemoryBytes:      comp.MemoryBytes,
			ParallelFraction: comp.ParallelFraction,
		}
		finish := func(rep model.ExecReport) {
			cr := ComponentResult{
				Name: comp.Name, Remote: r.assignment[id],
				Start: start, End: r.eng.Now(), Exec: rep, TransferS: transferS,
			}
			res.Components = append(res.Components, cr)
			res.CostUSD += rep.CostUSD
			if rep.Err != nil {
				res.Failed = true
				res.End = r.eng.Now()
				done(*res)
				return
			}
			r.step(idx+1, res, done)
		}
		if r.assignment[id] {
			res.EnergyMilliJ += 0 // remote compute costs the device nothing
			r.functions[id].Execute(task, finish)
		} else {
			res.EnergyMilliJ += r.dev.ComputeEnergyMilliJ(task)
			r.dev.Execute(task, finish)
		}
	})
}

// ranBefore reports whether component c appears before position idx in
// the execution order.
func (r *Runner) ranBefore(c callgraph.ComponentID, idx int) bool {
	for i := 0; i < idx; i++ {
		if r.order[i] == c {
			return true
		}
	}
	return false
}

// finishTrailing settles back edges — cut edges whose destination ran
// before its source (results flowing back, usually to the pinned anchor).
func (r *Runner) finishTrailing(res *Result, done func(Result)) {
	var trailing []callgraph.Edge
	pos := make(map[callgraph.ComponentID]int, len(r.order))
	for i, id := range r.order {
		pos[id] = i
	}
	for i := 0; i < r.graph.NumEdges(); i++ {
		e := r.graph.Edge(i)
		if r.assignment[e.From] != r.assignment[e.To] && pos[e.To] <= pos[e.From] {
			trailing = append(trailing, e)
		}
	}
	r.transferAll(trailing, res, func(float64) {
		res.End = r.eng.Now()
		done(*res)
	})
}

// transferAll moves each edge's payload sequentially over the path (one
// device radio), accumulating device energy and stats, then calls next
// with the total transfer seconds.
func (r *Runner) transferAll(edges []callgraph.Edge, res *Result, next func(totalS float64)) {
	total := 0.0
	var run func(i int)
	run = func(i int) {
		if i >= len(edges) {
			next(total)
			return
		}
		e := edges[i]
		bytes := int64(float64(e.Bytes) * e.CallsPerRun)
		dir := network.Uplink // device → cloud
		uplink := true
		if r.assignment[e.From] { // remote source: data comes down
			dir = network.Downlink
			uplink = false
		}
		r.path.Transfer(bytes, dir, func(rep network.Report) {
			total += float64(rep.Duration())
			res.CutEdges++
			res.BytesMoved += bytes
			res.EnergyMilliJ += r.dev.RadioEnergyMilliJ(rep.Duration(), uplink)
			run(i + 1)
		})
	}
	run(0)
}
