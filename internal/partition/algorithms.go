package partition

import (
	"fmt"
	"math"

	"offload/internal/callgraph"
	"offload/internal/rng"
)

// BruteForceLimit bounds the graph size BruteForce accepts: 2^n objective
// evaluations are exhaustive validation, not production partitioning.
const BruteForceLimit = 24

// BruteForce enumerates every valid assignment and returns the optimum. It
// errors on graphs larger than BruteForceLimit or an invalid model.
func BruteForce(g *callgraph.Graph, m CostModel) (Result, error) {
	if err := precheck(g, m); err != nil {
		return Result{}, err
	}
	free := freeComponents(g)
	if len(free) > BruteForceLimit {
		return Result{}, fmt.Errorf("partition: brute force over %d free components (limit %d)",
			len(free), BruteForceLimit)
	}
	ev := newEvaluator(g, m)
	best := AllLocal(g)
	bestObj := ev.objective(best)
	evals := 1
	a := AllLocal(g)
	for mask := uint64(1); mask < uint64(1)<<len(free); mask++ {
		for bit, idx := range free {
			a[idx] = mask&(1<<bit) != 0
		}
		if obj := ev.objective(a); obj < bestObj {
			bestObj = obj
			best = a.Clone()
		}
		evals++
	}
	return Result{Algorithm: "brute-force", Assignment: best, Objective: bestObj, Evaluations: evals}, nil
}

// MinCut computes the optimal partition as a minimum s-t cut of the
// MAUI-style flow network: source = device side, sink = remote side,
// terminal edge capacities are the opposite side's cost, and inter-vertex
// capacities are cut costs. Runs Dinic's algorithm in O(V²E).
func MinCut(g *callgraph.Graph, m CostModel) (Result, error) {
	if err := precheck(g, m); err != nil {
		return Result{}, err
	}
	n := g.Len()
	src, snk := n, n+1
	net := newFlowNet(n + 2)
	for i := 0; i < n; i++ {
		c := g.Component(callgraph.ComponentID(i))
		if c.Pinned || !m.RemoteFeasible(c) {
			// Infinite capacity from the source keeps pinned (or
			// remote-infeasible) components on the device side of any
			// finite cut.
			net.addEdge(src, i, math.Inf(1))
		} else {
			net.addEdge(src, i, m.RemoteCost(c))
		}
		net.addEdge(i, snk, m.LocalCost(c))
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		w := m.CutCost(e)
		net.addEdge(int(e.From), int(e.To), w)
		net.addEdge(int(e.To), int(e.From), w)
	}
	net.maxflow(src, snk)

	// Components still reachable from the source in the residual graph are
	// on the device side.
	reach := net.reachable(src)
	a := make(Assignment, n)
	for i := 0; i < n; i++ {
		a[i] = !reach[i]
	}
	return Result{
		Algorithm:   "min-cut",
		Assignment:  a,
		Objective:   Objective(g, m, a),
		Evaluations: net.augmentations,
	}, nil
}

// Greedy starts all-local and repeatedly flips the single component whose
// move improves the objective most, until no flip helps. It is the cheap
// heuristic baseline: optimal on many instances, but it can stop at a
// local minimum when two components must move together.
func Greedy(g *callgraph.Graph, m CostModel) (Result, error) {
	if err := precheck(g, m); err != nil {
		return Result{}, err
	}
	ev := newEvaluator(g, m)
	return greedy(g, &ev, freeComponents(g)), nil
}

// greedy is Greedy over a checked graph's evaluator and free components.
func greedy(g *callgraph.Graph, ev *evaluator, free []int) Result {
	a := AllLocal(g)
	obj := ev.objective(a)
	evals := 1
	for {
		bestIdx, bestObj := -1, obj
		for _, i := range free {
			a[i] = !a[i]
			if cand := ev.objective(a); cand < bestObj {
				bestObj, bestIdx = cand, i
			}
			a[i] = !a[i]
			evals++
		}
		if bestIdx < 0 {
			return Result{Algorithm: "greedy", Assignment: a, Objective: obj, Evaluations: evals}
		}
		a[bestIdx] = !a[bestIdx]
		obj = bestObj
	}
}

// AnnealConfig tunes the simulated-annealing searcher.
type AnnealConfig struct {
	Iterations int     // total proposal steps
	StartTemp  float64 // initial temperature, in objective units
	Cooling    float64 // geometric cooling factor per step, in (0, 1)
}

// DefaultAnneal returns a schedule that works well for graphs up to a few
// hundred components.
func DefaultAnneal() AnnealConfig {
	return AnnealConfig{Iterations: 20000, StartTemp: 1.0, Cooling: 0.9995}
}

// Anneal searches with simulated annealing from the greedy solution. It is
// the comparator that shows how much the exact min-cut buys over a generic
// metaheuristic.
func Anneal(g *callgraph.Graph, m CostModel, src *rng.Source, cfg AnnealConfig) (Result, error) {
	if err := precheck(g, m); err != nil {
		return Result{}, err
	}
	if cfg.Iterations <= 0 || cfg.StartTemp <= 0 || cfg.Cooling <= 0 || cfg.Cooling >= 1 {
		return Result{}, fmt.Errorf("partition: bad anneal config %+v", cfg)
	}
	ev := newEvaluator(g, m)
	free := freeComponents(g)
	seedRes := greedy(g, &ev, free)
	cur := seedRes.Assignment.Clone()
	curObj := seedRes.Objective
	best := cur.Clone()
	bestObj := curObj
	if len(free) == 0 {
		return Result{Algorithm: "anneal", Assignment: best, Objective: bestObj, Evaluations: seedRes.Evaluations}, nil
	}
	// Temperature is relative to the objective scale so one schedule works
	// across workloads of very different magnitudes.
	temp := cfg.StartTemp * math.Max(curObj, 1e-12)
	evals := seedRes.Evaluations
	for it := 0; it < cfg.Iterations; it++ {
		idx := free[src.Intn(len(free))]
		cur[idx] = !cur[idx]
		cand := ev.objective(cur)
		evals++
		delta := cand - curObj
		if delta <= 0 || src.Float64() < math.Exp(-delta/temp) {
			curObj = cand
			if curObj < bestObj {
				bestObj = curObj
				best = cur.Clone()
			}
		} else {
			cur[idx] = !cur[idx] // reject
		}
		temp *= cfg.Cooling
	}
	return Result{Algorithm: "anneal", Assignment: best, Objective: bestObj, Evaluations: evals}, nil
}

func precheck(g *callgraph.Graph, m CostModel) error {
	if err := g.Validate(); err != nil {
		return err
	}
	return m.Validate()
}

// freeComponents lists the unpinned component indices in graph order: the
// only components a searcher flips.
func freeComponents(g *callgraph.Graph) []int {
	free := make([]int, 0, g.Len())
	for i := 0; i < g.Len(); i++ {
		if !g.Component(callgraph.ComponentID(i)).Pinned {
			free = append(free, i)
		}
	}
	return free
}

// flowNet is a Dinic max-flow network over float64 capacities.
type flowNet struct {
	n             int
	head          [][]int // adjacency: node -> edge indices
	to            []int
	cap           []float64
	level         []int
	iter          []int
	augmentations int
}

func newFlowNet(n int) *flowNet {
	return &flowNet{n: n, head: make([][]int, n)}
}

// addEdge inserts a directed edge and its zero-capacity reverse.
func (f *flowNet) addEdge(u, v int, c float64) {
	f.head[u] = append(f.head[u], len(f.to))
	f.to = append(f.to, v)
	f.cap = append(f.cap, c)
	f.head[v] = append(f.head[v], len(f.to))
	f.to = append(f.to, u)
	f.cap = append(f.cap, 0)
}

// eps is the residual-capacity floor below which an edge counts as
// saturated; our capacities are objective values well above this scale.
const eps = 1e-12

func (f *flowNet) bfs(s, t int) bool {
	f.level = make([]int, f.n)
	for i := range f.level {
		f.level[i] = -1
	}
	queue := []int{s}
	f.level[s] = 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ei := range f.head[u] {
			if f.cap[ei] > eps && f.level[f.to[ei]] < 0 {
				f.level[f.to[ei]] = f.level[u] + 1
				queue = append(queue, f.to[ei])
			}
		}
	}
	return f.level[t] >= 0
}

func (f *flowNet) dfs(u, t int, pushed float64) float64 {
	if u == t {
		return pushed
	}
	for ; f.iter[u] < len(f.head[u]); f.iter[u]++ {
		ei := f.head[u][f.iter[u]]
		v := f.to[ei]
		if f.cap[ei] <= eps || f.level[v] != f.level[u]+1 {
			continue
		}
		got := f.dfs(v, t, math.Min(pushed, f.cap[ei]))
		if got > 0 {
			f.cap[ei] -= got
			f.cap[ei^1] += got
			return got
		}
	}
	return 0
}

func (f *flowNet) maxflow(s, t int) float64 {
	total := 0.0
	for f.bfs(s, t) {
		f.iter = make([]int, f.n)
		for {
			pushed := f.dfs(s, t, math.Inf(1))
			if pushed <= 0 {
				break
			}
			total += pushed
			f.augmentations++
		}
	}
	return total
}

// reachable returns which nodes the source still reaches in the residual
// network — the source side of the minimum cut.
func (f *flowNet) reachable(s int) []bool {
	seen := make([]bool, f.n)
	stack := []int{s}
	seen[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range f.head[u] {
			if f.cap[ei] > eps && !seen[f.to[ei]] {
				seen[f.to[ei]] = true
				stack = append(stack, f.to[ei])
			}
		}
	}
	return seen
}
