// Package callgraph models the applications being offloaded as weighted
// component graphs, the abstraction the partitioner operates on.
//
// Vertices are application components (a method, a stage, a microservice
// handler) annotated with computational demand and working-set size; edges
// carry the bytes exchanged per interaction and how often the interaction
// happens per application run. Components that touch the user or device
// hardware (UI, sensors, local storage) are pinned and can never be
// offloaded — exactly the constraint MAUI-style partitioners enforce.
package callgraph

import (
	"fmt"
)

// ComponentID indexes a component within its graph.
type ComponentID int

// Component is one vertex of the call graph.
type Component struct {
	Name        string
	Cycles      float64 // CPU cycles per invocation
	MemoryBytes int64   // working-set size
	CallsPerRun float64 // invocations per application run (>= 0)
	Pinned      bool    // must execute on the device

	// ParallelFraction is the Amdahl-parallelisable fraction of the
	// component's work, used when it runs on substrates with >1 vCPU.
	ParallelFraction float64
}

// Edge is one interaction between two components.
type Edge struct {
	From, To    ComponentID
	Bytes       int64   // payload bytes per call (both directions combined)
	CallsPerRun float64 // interactions per application run
}

// Graph is a weighted component graph. Create one with New and populate it
// with AddComponent/AddEdge; Validate before handing it to a partitioner.
type Graph struct {
	name       string
	components []Component
	edges      []Edge
	byName     map[string]ComponentID
}

// New returns an empty graph with the given application name.
func New(name string) *Graph {
	return &Graph{name: name, byName: make(map[string]ComponentID)}
}

// Name returns the application name.
func (g *Graph) Name() string { return g.name }

// AddComponent appends a component and returns its ID. Component names
// must be unique and non-empty.
func (g *Graph) AddComponent(c Component) (ComponentID, error) {
	if c.Name == "" {
		return 0, fmt.Errorf("callgraph: %s: component with empty name", g.name)
	}
	if _, dup := g.byName[c.Name]; dup {
		return 0, fmt.Errorf("callgraph: %s: duplicate component %q", g.name, c.Name)
	}
	if c.Cycles < 0 || c.MemoryBytes < 0 || c.CallsPerRun < 0 {
		return 0, fmt.Errorf("callgraph: %s: component %q has negative weight", g.name, c.Name)
	}
	if c.ParallelFraction < 0 || c.ParallelFraction > 1 {
		return 0, fmt.Errorf("callgraph: %s: component %q parallel fraction outside [0,1]", g.name, c.Name)
	}
	if c.CallsPerRun == 0 {
		c.CallsPerRun = 1
	}
	id := ComponentID(len(g.components))
	g.components = append(g.components, c)
	g.byName[c.Name] = id
	return id, nil
}

// MustAddComponent is AddComponent for programmatic graph construction,
// panicking on error.
func (g *Graph) MustAddComponent(c Component) ComponentID {
	id, err := g.AddComponent(c)
	if err != nil {
		panic(err)
	}
	return id
}

// AddEdge appends an interaction edge. Self-edges are rejected.
func (g *Graph) AddEdge(e Edge) error {
	if !g.valid(e.From) || !g.valid(e.To) {
		return fmt.Errorf("callgraph: %s: edge references unknown component (%d→%d)", g.name, e.From, e.To)
	}
	if e.From == e.To {
		return fmt.Errorf("callgraph: %s: self edge on %q", g.name, g.components[e.From].Name)
	}
	if e.Bytes < 0 || e.CallsPerRun < 0 {
		return fmt.Errorf("callgraph: %s: edge %q→%q has negative weight",
			g.name, g.components[e.From].Name, g.components[e.To].Name)
	}
	if e.CallsPerRun == 0 {
		e.CallsPerRun = 1
	}
	g.edges = append(g.edges, e)
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(e Edge) {
	if err := g.AddEdge(e); err != nil {
		panic(err)
	}
}

// Connect is a convenience: add an edge between named components.
func (g *Graph) Connect(from, to string, bytes int64, calls float64) error {
	f, ok := g.byName[from]
	if !ok {
		return fmt.Errorf("callgraph: %s: unknown component %q", g.name, from)
	}
	t, ok := g.byName[to]
	if !ok {
		return fmt.Errorf("callgraph: %s: unknown component %q", g.name, to)
	}
	return g.AddEdge(Edge{From: f, To: t, Bytes: bytes, CallsPerRun: calls})
}

func (g *Graph) valid(id ComponentID) bool {
	return id >= 0 && int(id) < len(g.components)
}

// Len returns the number of components.
func (g *Graph) Len() int { return len(g.components) }

// Component returns the component with the given ID. It panics on an
// out-of-range ID: IDs only come from this graph.
func (g *Graph) Component(id ComponentID) Component {
	if !g.valid(id) {
		panic(fmt.Sprintf("callgraph: %s: component id %d out of range", g.name, id))
	}
	return g.components[id]
}

// Lookup returns the ID for a component name.
func (g *Graph) Lookup(name string) (ComponentID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// Components returns a copy of the component list.
func (g *Graph) Components() []Component {
	cp := make([]Component, len(g.components))
	copy(cp, g.components)
	return cp
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the i-th edge, 0 <= i < NumEdges, without copying the edge
// list; read-only loops use it instead of Edges.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list; callers may modify it.
func (g *Graph) Edges() []Edge {
	cp := make([]Edge, len(g.edges))
	copy(cp, g.edges)
	return cp
}

// Validate checks the graph is usable for partitioning: non-empty and with
// at least one pinned component (the partition must have a device side to
// anchor user interaction).
func (g *Graph) Validate() error {
	if len(g.components) == 0 {
		return fmt.Errorf("callgraph: %s: empty graph", g.name)
	}
	pinned := false
	for _, c := range g.components {
		if c.Pinned {
			pinned = true
			break
		}
	}
	if !pinned {
		return fmt.Errorf("callgraph: %s: no pinned component", g.name)
	}
	return nil
}

// TotalCycles returns the total per-run computational demand of the app.
func (g *Graph) TotalCycles() float64 {
	sum := 0.0
	for _, c := range g.components {
		sum += c.Cycles * c.CallsPerRun
	}
	return sum
}

// TotalEdgeBytes returns the total per-run bytes across all interactions.
func (g *Graph) TotalEdgeBytes() float64 {
	sum := 0.0
	for _, e := range g.edges {
		sum += float64(e.Bytes) * e.CallsPerRun
	}
	return sum
}

// Neighbors returns the edges incident to id (in either direction).
func (g *Graph) Neighbors(id ComponentID) []Edge {
	var out []Edge
	for _, e := range g.edges {
		if e.From == id || e.To == id {
			out = append(out, e)
		}
	}
	return out
}
