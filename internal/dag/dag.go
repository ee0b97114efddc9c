// Package dag models multi-stage applications as precedence task graphs
// and schedules them on the existing event core. A Job is a directed
// acyclic graph whose nodes carry compute and memory demand and whose
// edges carry the bytes handed from producer to consumer; the
// Orchestrator releases each node to the scheduler only once every
// predecessor has completed, so a job's observed makespan is the paper's
// per-job completion time rather than a per-task latency.
//
// Edge data flows through the device: a producer's results return to the
// device (its task's OutputBytes include the edge payloads) and are
// uploaded again when the consumer dispatches (its InputBytes include
// them). Every byte therefore crosses the modelled network exactly as the
// single-task engine prices it, whatever placements the two endpoints
// got — no new transfer model, no co-placement special case.
package dag

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"offload/internal/sim"
)

// NodeID indexes a node within its job.
type NodeID int

// Node is one task of a job: a stage of the application.
type Node struct {
	Name        string
	Cycles      float64 // computational demand, CPU cycles
	MemoryBytes int64   // working-set size

	// InputBytes and OutputBytes are the node's job-external payloads: data
	// the device holds before the job starts (inputs of entry stages) and
	// results the user keeps (outputs of exit stages). Inter-node payloads
	// are edges, not these.
	InputBytes  int64
	OutputBytes int64

	// ParallelFraction is the Amdahl-parallelisable fraction in [0, 1].
	ParallelFraction float64
}

// Edge is one producer→consumer data dependency.
type Edge struct {
	From, To NodeID
	Bytes    int64 // payload handed from From to To
}

// Job is a directed acyclic task graph. Build one with New, AddNode and
// AddEdge, then Validate before handing it to an Orchestrator.
type Job struct {
	app      string
	deadline sim.Duration

	nodes  []Node
	edges  []Edge
	byName map[string]NodeID

	// Adjacency, rebuilt by Validate: preds/succs per node plus the
	// per-node sums of incident edge bytes the relay data model needs.
	preds, succs [][]NodeID
	inBytes      []int64 // Σ incoming edge bytes per node
	outBytes     []int64 // Σ outgoing edge bytes per node
	topo         []NodeID
	apps         []string // per-node task App, "app/node"
	validated    bool

	// shared marks edges, byName and the Validate caches as possibly
	// read by other jobs (see Share). AddNode and AddEdge copy edges and
	// byName first; Validate builds fresh caches.
	shared bool
}

// New returns an empty job for the named application. The deadline is the
// whole job's soft completion budget; zero means fully delay-tolerant.
func New(app string, deadline sim.Duration) *Job {
	return &Job{app: app, deadline: deadline, byName: make(map[string]NodeID)}
}

// App returns the application name.
func (j *Job) App() string { return j.app }

// Deadline returns the job's soft completion budget (0 = none).
func (j *Job) Deadline() sim.Duration { return j.deadline }

// Len returns the number of nodes.
func (j *Job) Len() int { return len(j.nodes) }

// AddNode appends a node and returns its ID. Names must be unique and
// non-empty; weights must be non-negative.
func (j *Job) AddNode(n Node) (NodeID, error) {
	if n.Name == "" {
		return 0, fmt.Errorf("dag: %s: node with empty name", j.app)
	}
	if _, dup := j.byName[n.Name]; dup {
		return 0, fmt.Errorf("dag: %s: duplicate node %q", j.app, n.Name)
	}
	if err := j.checkWeights(n); err != nil {
		return 0, err
	}
	j.own()
	id := NodeID(len(j.nodes))
	j.nodes = append(j.nodes, n)
	j.byName[n.Name] = id
	j.validated = false
	return id, nil
}

func (j *Job) checkWeights(n Node) error {
	if n.Cycles < 0 || n.MemoryBytes < 0 || n.InputBytes < 0 || n.OutputBytes < 0 {
		return fmt.Errorf("dag: %s: node %q has negative weight", j.app, n.Name)
	}
	if n.ParallelFraction < 0 || n.ParallelFraction > 1 {
		return fmt.Errorf("dag: %s: node %q parallel fraction outside [0,1]", j.app, n.Name)
	}
	return nil
}

// own gives j private copies of what it may share with other jobs before
// a mutation writes to them. The Validate caches need no copy: Validate
// rebuilds them into fresh slices.
func (j *Job) own() {
	if j.shared {
		j.edges = slices.Clone(j.edges)
		j.byName = maps.Clone(j.byName)
		j.shared = false
	}
}

// Share returns a validated job with j's application, deadline and
// structure — edges, names, adjacency, topological order and task app
// names — carrying nodes in place of j's. nodes must hold j's node names
// in j's order; the new job owns the slice and shares everything else
// with j read-only: AddNode or AddEdge on either job copies what it
// changes first. A generator whose jobs differ only in node weights
// builds and validates one job and shares it, instead of rebuilding the
// same graph for every job.
func (j *Job) Share(nodes []Node) (*Job, error) {
	j.mustValidated()
	if len(nodes) != len(j.nodes) {
		return nil, fmt.Errorf("dag: %s: sharing %d nodes' structure with %d nodes", j.app, len(j.nodes), len(nodes))
	}
	for i, n := range nodes {
		if n.Name != j.nodes[i].Name {
			return nil, fmt.Errorf("dag: %s: node %d is %q, want %q", j.app, i, n.Name, j.nodes[i].Name)
		}
		if err := j.checkWeights(n); err != nil {
			return nil, err
		}
	}
	j.shared = true
	cp := *j
	cp.nodes = nodes
	return &cp, nil
}

// MustAddNode is AddNode for programmatic construction, panicking on error.
func (j *Job) MustAddNode(n Node) NodeID {
	id, err := j.AddNode(n)
	if err != nil {
		panic(err)
	}
	return id
}

// AddEdge appends a dependency edge. Self-edges, duplicate edges (same
// ordered pair), unknown endpoints and negative payloads are rejected.
func (j *Job) AddEdge(e Edge) error {
	if !j.valid(e.From) || !j.valid(e.To) {
		return fmt.Errorf("dag: %s: edge references unknown node (%d→%d)", j.app, e.From, e.To)
	}
	if e.From == e.To {
		return fmt.Errorf("dag: %s: self edge on %q", j.app, j.nodes[e.From].Name)
	}
	if e.Bytes < 0 {
		return fmt.Errorf("dag: %s: edge %q→%q has negative payload",
			j.app, j.nodes[e.From].Name, j.nodes[e.To].Name)
	}
	for _, ex := range j.edges {
		if ex.From == e.From && ex.To == e.To {
			return fmt.Errorf("dag: %s: duplicate edge %q→%q",
				j.app, j.nodes[e.From].Name, j.nodes[e.To].Name)
		}
	}
	j.own()
	j.edges = append(j.edges, e)
	j.validated = false
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (j *Job) MustAddEdge(e Edge) {
	if err := j.AddEdge(e); err != nil {
		panic(err)
	}
}

// Connect is a convenience: add an edge between named nodes.
func (j *Job) Connect(from, to string, bytes int64) error {
	f, ok := j.byName[from]
	if !ok {
		return fmt.Errorf("dag: %s: unknown node %q", j.app, from)
	}
	t, ok := j.byName[to]
	if !ok {
		return fmt.Errorf("dag: %s: unknown node %q", j.app, to)
	}
	return j.AddEdge(Edge{From: f, To: t, Bytes: bytes})
}

func (j *Job) valid(id NodeID) bool { return id >= 0 && int(id) < len(j.nodes) }

// Node returns the node with the given ID. It panics on an out-of-range
// ID: IDs only come from this job.
func (j *Job) Node(id NodeID) Node {
	if !j.valid(id) {
		panic(fmt.Sprintf("dag: %s: node id %d out of range", j.app, id))
	}
	return j.nodes[id]
}

// Lookup returns the ID for a node name.
func (j *Job) Lookup(name string) (NodeID, bool) {
	id, ok := j.byName[name]
	return id, ok
}

// Nodes returns a copy of the node list.
func (j *Job) Nodes() []Node {
	cp := make([]Node, len(j.nodes))
	copy(cp, j.nodes)
	return cp
}

// Edges returns a copy of the edge list.
func (j *Job) Edges() []Edge {
	cp := make([]Edge, len(j.edges))
	copy(cp, j.edges)
	return cp
}

// Validate checks the job is runnable — non-empty and acyclic — and
// freezes the adjacency caches. It must be called (directly or via the
// Orchestrator) before Preds/Succs/TopoOrder/TaskSizes/TaskApp.
func (j *Job) Validate() error {
	if len(j.nodes) == 0 {
		return fmt.Errorf("dag: %s: empty job", j.app)
	}
	if j.deadline < 0 {
		return fmt.Errorf("dag: %s: negative deadline", j.app)
	}
	// Each cache is a sub-slice of a handful of shared backing arrays, so
	// validating costs the same few allocations whatever the job's size.
	n, m := len(j.nodes), len(j.edges)
	adj := make([][]NodeID, 2*n)
	ids := make([]NodeID, 2*m)
	sums := make([]int64, 2*n)
	deg := make([]int, 2*n)
	j.preds, j.succs = adj[:n:n], adj[n:]
	j.inBytes, j.outBytes = sums[:n:n], sums[n:]
	indeg, outdeg := deg[:n:n], deg[n:]
	for _, e := range j.edges {
		outdeg[e.From]++
		indeg[e.To]++
		j.outBytes[e.From] += e.Bytes
		j.inBytes[e.To] += e.Bytes
	}
	off := 0
	for id := 0; id < n; id++ {
		j.preds[id] = ids[off : off : off+indeg[id]]
		off += indeg[id]
		j.succs[id] = ids[off : off : off+outdeg[id]]
		off += outdeg[id]
	}
	for _, e := range j.edges {
		j.succs[e.From] = append(j.succs[e.From], e.To)
		j.preds[e.To] = append(j.preds[e.To], e.From)
	}
	for id := range j.preds {
		slices.Sort(j.preds[id])
		slices.Sort(j.succs[id])
	}
	// Kahn's algorithm with the ready set drained in ascending NodeID
	// order: the resulting topological order is a pure function of the
	// graph, independent of insertion order.
	ready := make([]NodeID, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			ready = append(ready, NodeID(id))
		}
	}
	j.topo = make([]NodeID, 0, n)
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		j.topo = append(j.topo, id)
		for _, s := range j.succs[id] {
			indeg[s]--
			if indeg[s] == 0 {
				i, _ := slices.BinarySearch(ready, s)
				ready = slices.Insert(ready, i, s)
			}
		}
	}
	if len(j.topo) != n {
		var stuck []string
		for id := 0; id < n; id++ {
			if indeg[id] > 0 {
				stuck = append(stuck, j.nodes[id].Name)
			}
		}
		return fmt.Errorf("dag: %s: cycle through {%s}", j.app, strings.Join(stuck, ", "))
	}
	// Task app names depend on node names alone, which only AddNode
	// changes, growing the job: names that still match in number are
	// kept, and may be shared.
	if len(j.apps) != n {
		j.apps = make([]string, n)
		for id, nd := range j.nodes {
			j.apps[id] = j.app + "/" + nd.Name
		}
	}
	j.validated = true
	return nil
}

func (j *Job) mustValidated() {
	if !j.validated {
		panic(fmt.Sprintf("dag: %s: Validate before use", j.app))
	}
}

// TopoOrder returns the deterministic topological order: among released
// candidates, lower NodeIDs come first. The slice is a copy.
func (j *Job) TopoOrder() []NodeID {
	j.mustValidated()
	cp := make([]NodeID, len(j.topo))
	copy(cp, j.topo)
	return cp
}

// Preds returns the node's predecessors in ascending order (shared slice;
// do not mutate).
func (j *Job) Preds(id NodeID) []NodeID {
	j.mustValidated()
	return j.preds[id]
}

// Succs returns the node's successors in ascending order (shared slice;
// do not mutate).
func (j *Job) Succs(id NodeID) []NodeID {
	j.mustValidated()
	return j.succs[id]
}

// TaskSizes returns the transfer payloads of the node's scheduled task
// under the device-relay data model: its job-external bytes plus the
// payloads of every incident edge. Charging these through the scheduler's
// ordinary uplink/downlink legs prices all inter-node data movement on
// the existing network and inter-region cost models.
func (j *Job) TaskSizes(id NodeID) (inBytes, outBytes int64) {
	j.mustValidated()
	n := j.nodes[id]
	return n.InputBytes + j.inBytes[id], n.OutputBytes + j.outBytes[id]
}

// TaskApp returns the App of the node's scheduled task: the job's
// application and the node's name, "app/node".
func (j *Job) TaskApp(id NodeID) string {
	j.mustValidated()
	return j.apps[id]
}

// TotalCycles returns the summed demand of all nodes.
func (j *Job) TotalCycles() float64 {
	sum := 0.0
	for _, n := range j.nodes {
		sum += n.Cycles
	}
	return sum
}

// DOT renders the job in Graphviz format: nodes labelled with their
// demand, edges with their payloads, entry/exit payloads as dashed edges
// from/to a device anchor.
func (j *Job) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", j.app)
	b.WriteString("  \"device\" [shape=box];\n")
	for _, n := range j.nodes {
		fmt.Fprintf(&b, "  %q [shape=ellipse, label=\"%s\\n%.3g Gcyc\"];\n",
			n.Name, n.Name, n.Cycles/1e9)
	}
	for _, n := range j.nodes {
		if n.InputBytes > 0 {
			fmt.Fprintf(&b, "  \"device\" -> %q [style=dashed, label=\"%s\"];\n",
				n.Name, byteLabel(n.InputBytes))
		}
	}
	for _, e := range j.edges {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%s\"];\n",
			j.nodes[e.From].Name, j.nodes[e.To].Name, byteLabel(e.Bytes))
	}
	for _, n := range j.nodes {
		if n.OutputBytes > 0 {
			fmt.Fprintf(&b, "  %q -> \"device\" [style=dashed, label=\"%s\"];\n",
				n.Name, byteLabel(n.OutputBytes))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func byteLabel(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
