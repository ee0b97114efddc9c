// Package partition decides which components of an application call graph
// execute on the device and which are offloaded, minimising a weighted
// objective of completion time, device energy and cloud money.
//
// The objective has the classic MAUI/CloneCloud structure — a per-vertex
// cost that depends only on the vertex's side plus a per-edge cost paid
// when an edge crosses the cut — so the optimal partition is a minimum
// s-t cut, computed here with Dinic's algorithm. Exhaustive search (for
// validation on small graphs), greedy hill-climbing and simulated
// annealing are provided as comparators for the E3 experiment.
package partition

import (
	"fmt"
	"math"

	"offload/internal/callgraph"
)

// CostModel captures the execution environment the partition will run in.
// Weights convert seconds, joules and dollars into one scalar objective;
// a pure-latency model sets LatencyWeight=1 and the rest to zero.
type CostModel struct {
	LocalHz  float64 // device cycles per second
	RemoteHz float64 // offload-target cycles per second

	BandwidthBps float64 // device↔remote bandwidth for cut edges
	RTTSeconds   float64 // per-interaction round trip on cut edges

	USDPerRemoteSecond float64 // price of remote compute time
	EnergyJPerCycle    float64 // device energy per local cycle
	RadioJPerByte      float64 // device energy per transferred byte

	LatencyWeight float64 // objective weight per second
	EnergyWeight  float64 // objective weight per joule
	MoneyWeight   float64 // objective weight per dollar

	// MaxRemoteMemory bounds the working set a remote component may have
	// (the offload target's largest instance size). Components above it
	// are effectively pinned to the device. Zero disables the bound.
	MaxRemoteMemory int64
}

// Validate reports whether the model is usable.
func (m CostModel) Validate() error {
	switch {
	case m.LocalHz <= 0 || m.RemoteHz <= 0:
		return fmt.Errorf("partition: CPU rates must be positive")
	case m.BandwidthBps <= 0:
		return fmt.Errorf("partition: bandwidth must be positive")
	case m.RTTSeconds < 0:
		return fmt.Errorf("partition: negative RTT")
	case m.USDPerRemoteSecond < 0 || m.EnergyJPerCycle < 0 || m.RadioJPerByte < 0:
		return fmt.Errorf("partition: negative rate")
	case m.LatencyWeight < 0 || m.EnergyWeight < 0 || m.MoneyWeight < 0:
		return fmt.Errorf("partition: negative weight")
	case m.LatencyWeight+m.EnergyWeight+m.MoneyWeight == 0:
		return fmt.Errorf("partition: all objective weights are zero")
	case m.MaxRemoteMemory < 0:
		return fmt.Errorf("partition: negative remote memory bound")
	}
	return nil
}

// RemoteFeasible reports whether the component may execute remotely under
// the model's memory bound.
func (m CostModel) RemoteFeasible(c callgraph.Component) bool {
	return m.MaxRemoteMemory == 0 || c.MemoryBytes <= m.MaxRemoteMemory
}

// LocalCost returns the objective contribution of running c on the device.
func (m CostModel) LocalCost(c callgraph.Component) float64 {
	cycles := c.Cycles * c.CallsPerRun
	t := cycles / m.LocalHz
	return m.LatencyWeight*t + m.EnergyWeight*cycles*m.EnergyJPerCycle
}

// RemoteCost returns the objective contribution of running c remotely.
func (m CostModel) RemoteCost(c callgraph.Component) float64 {
	cycles := c.Cycles * c.CallsPerRun
	t := cycles / m.RemoteHz
	return m.LatencyWeight*t + m.MoneyWeight*t*m.USDPerRemoteSecond
}

// CutCost returns the objective contribution of edge e crossing the
// device/remote boundary.
func (m CostModel) CutCost(e callgraph.Edge) float64 {
	bytes := float64(e.Bytes) * e.CallsPerRun
	t := 8*bytes/m.BandwidthBps + m.RTTSeconds*e.CallsPerRun
	return m.LatencyWeight*t + m.EnergyWeight*bytes*m.RadioJPerByte
}

// Assignment maps each component to a side: false = device, true = remote.
type Assignment []bool

// RemoteCount returns how many components are offloaded.
func (a Assignment) RemoteCount() int {
	n := 0
	for _, r := range a {
		if r {
			n++
		}
	}
	return n
}

// Clone returns an independent copy.
func (a Assignment) Clone() Assignment {
	cp := make(Assignment, len(a))
	copy(cp, a)
	return cp
}

// Valid reports whether the assignment has the right arity and keeps every
// pinned component on the device.
func (a Assignment) Valid(g *callgraph.Graph) bool {
	if len(a) != g.Len() {
		return false
	}
	for i, remote := range a {
		if remote && g.Component(callgraph.ComponentID(i)).Pinned {
			return false
		}
	}
	return true
}

// Objective evaluates the assignment under the model. Invalid assignments
// (wrong arity or pinned component offloaded) evaluate to +Inf, which lets
// stochastic searchers treat validity as just another cost.
func Objective(g *callgraph.Graph, m CostModel, a Assignment) float64 {
	if !a.Valid(g) {
		return math.Inf(1)
	}
	total := 0.0
	for i, remote := range a {
		c := g.Component(callgraph.ComponentID(i))
		if remote {
			if !m.RemoteFeasible(c) {
				return math.Inf(1)
			}
			total += m.RemoteCost(c)
		} else {
			total += m.LocalCost(c)
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if a[e.From] != a[e.To] {
			total += m.CutCost(e)
		}
	}
	return total
}

// evaluator is one (graph, model) pair flattened for a search: the
// component and edge costs Objective derives on every call, computed once.
// Its objective adds the same terms in the same order as Objective, so the
// two agree bit for bit on every assignment a searcher produces.
type evaluator struct {
	local, remote []float64 // per-component cost on each side
	infeasible    []bool    // remote placement exceeds MaxRemoteMemory
	from, to      []callgraph.ComponentID
	cut           []float64 // per-edge cost when the edge crosses the cut
}

func newEvaluator(g *callgraph.Graph, m CostModel) evaluator {
	n, ne := g.Len(), g.NumEdges()
	costs := make([]float64, 2*n+ne)
	ends := make([]callgraph.ComponentID, 2*ne)
	ev := evaluator{
		local:      costs[:n:n],
		remote:     costs[n : 2*n : 2*n],
		infeasible: make([]bool, n),
		from:       ends[:ne:ne],
		to:         ends[ne:],
		cut:        costs[2*n:],
	}
	for i := 0; i < n; i++ {
		c := g.Component(callgraph.ComponentID(i))
		ev.local[i] = m.LocalCost(c)
		ev.remote[i] = m.RemoteCost(c)
		ev.infeasible[i] = !m.RemoteFeasible(c)
	}
	for i := 0; i < ne; i++ {
		e := g.Edge(i)
		ev.from[i], ev.to[i], ev.cut[i] = e.From, e.To, m.CutCost(e)
	}
	return ev
}

// objective returns Objective(g, m, a) for an assignment that Valid
// accepts for g. The searchers start from such an assignment and flip only
// unpinned components, so they skip Objective's validity check.
func (ev *evaluator) objective(a Assignment) float64 {
	total := 0.0
	for i, remote := range a {
		if remote {
			if ev.infeasible[i] {
				return math.Inf(1)
			}
			total += ev.remote[i]
		} else {
			total += ev.local[i]
		}
	}
	for i, from := range ev.from {
		if a[from] != a[ev.to[i]] {
			total += ev.cut[i]
		}
	}
	return total
}

// AllLocal returns the assignment that keeps everything on the device.
func AllLocal(g *callgraph.Graph) Assignment {
	return make(Assignment, g.Len())
}

// AllRemote returns the assignment that offloads everything except pinned
// components.
func AllRemote(g *callgraph.Graph) Assignment {
	a := make(Assignment, g.Len())
	for i := range a {
		a[i] = !g.Component(callgraph.ComponentID(i)).Pinned
	}
	return a
}

// Result is the outcome of one partitioning run.
type Result struct {
	Algorithm  string
	Assignment Assignment
	Objective  float64
	// Evaluations counts objective (or flow) work, for the E3 cost table.
	Evaluations int
}

// Remote lists the names of offloaded components, in graph order.
func (r Result) Remote(g *callgraph.Graph) []string {
	var out []string
	for i, remote := range r.Assignment {
		if remote {
			out = append(out, g.Component(callgraph.ComponentID(i)).Name)
		}
	}
	return out
}
