package workload

import (
	"fmt"
	"slices"

	"offload/internal/callgraph"
	"offload/internal/dag"
	"offload/internal/rng"
	"offload/internal/sim"
)

// JobShape names a generated DAG family.
type JobShape string

// The generator shapes: a serial chain (maximum depth, no parallelism),
// a fork-join (maximum width), and random layered DAGs between the two.
const (
	ShapePipeline JobShape = "pipeline"
	ShapeForkJoin JobShape = "fork-join"
	ShapeLayered  JobShape = "layered"
)

// JobTemplate describes a population of DAG jobs of one shape.
type JobTemplate struct {
	App   string
	Shape JobShape
	Nodes int // nodes per job
	Width int // layered: max nodes per layer (≥1); other shapes ignore it

	MeanCycles  float64 // mean demand per node
	CyclesSigma float64 // lognormal dispersion of node sizes

	EdgeBytes   int64 // payload per precedence edge
	InputBytes  int64 // job-external input per entry node
	OutputBytes int64 // job-external output per exit node

	MemoryBytes int64        // per node; nodes run serial code
	Deadline    sim.Duration // whole-job soft deadline; 0 = none
}

// Validate reports whether the template is usable.
func (t JobTemplate) Validate() error {
	switch {
	case t.App == "":
		return fmt.Errorf("workload: job template without app name")
	case t.Shape != ShapePipeline && t.Shape != ShapeForkJoin && t.Shape != ShapeLayered:
		return fmt.Errorf("workload: %s: unknown job shape %q", t.App, t.Shape)
	case t.Nodes < 1:
		return fmt.Errorf("workload: %s: job needs at least one node", t.App)
	case t.Shape == ShapeLayered && t.Width < 1:
		return fmt.Errorf("workload: %s: layered jobs need Width >= 1", t.App)
	case t.MeanCycles <= 0:
		return fmt.Errorf("workload: %s: node demand must be positive", t.App)
	case t.CyclesSigma < 0:
		return fmt.Errorf("workload: %s: negative dispersion", t.App)
	case t.EdgeBytes < 0 || t.InputBytes < 0 || t.OutputBytes < 0 || t.MemoryBytes < 0:
		return fmt.Errorf("workload: %s: negative sizes", t.App)
	case t.Deadline < 0:
		return fmt.Errorf("workload: %s: negative deadline", t.App)
	}
	return nil
}

// JobGenerator draws DAG jobs from one template. All structure and size
// variation comes from its rng stream, so a given (seed, template) pair
// always yields the same job sequence.
type JobGenerator struct {
	src  *rng.Source
	tmpl JobTemplate
	made uint64

	// proto is the validated job whose structure every drawn job shares
	// (dag.Job.Share): all of it for pipeline and fork-join shapes, the
	// node names for layered ones, whose proto has no edges since each
	// layered job draws its own.
	proto *dag.Job
}

// NewJobGenerator returns a generator over the template.
func NewJobGenerator(src *rng.Source, tmpl JobTemplate) (*JobGenerator, error) {
	if err := tmpl.Validate(); err != nil {
		return nil, err
	}
	var edges [][2]int
	if tmpl.Shape != ShapeLayered {
		edges = fixedEdges(tmpl.Shape, tmpl.Nodes)
	}
	nodes := make([]dag.Node, tmpl.Nodes)
	sizeNodes(tmpl, nodes, edges)
	proto := dag.New(tmpl.App, tmpl.Deadline)
	for i, n := range nodes {
		n.Name = fmt.Sprintf("n%02d", i)
		proto.MustAddNode(n)
	}
	addEdges(tmpl, proto, edges)
	if err := proto.Validate(); err != nil {
		return nil, err
	}
	return &JobGenerator{src: src, tmpl: tmpl, proto: proto}, nil
}

// Generated returns how many jobs have been drawn.
func (g *JobGenerator) Generated() uint64 { return g.made }

// Next draws one job. The node count and shape come from the template;
// per-node demand scales by a unit-mean lognormal factor, and layered
// shapes draw their cross-layer edges from the generator's stream.
func (g *JobGenerator) Next() *dag.Job {
	t := g.tmpl
	g.made++

	// Per-node demand first, in index order, so the draw sequence is
	// independent of how many edges the shape adds afterwards.
	nodes := g.proto.Nodes()
	for i := range nodes {
		scale := 1.0
		if t.CyclesSigma > 0 {
			scale = g.src.LogNormal(-t.CyclesSigma*t.CyclesSigma/2, t.CyclesSigma)
		}
		nodes[i].Cycles = t.MeanCycles * scale
	}
	var edges [][2]int
	if t.Shape == ShapeLayered {
		edges = g.layeredEdges(t.Nodes, t.Width)
		sizeNodes(t, nodes, edges)
	}
	job, err := g.proto.Share(nodes)
	if err != nil {
		panic(err)
	}
	addEdges(t, job, edges)
	return job
}

// fixedEdges returns the edges of the shapes that draw none: a serial
// chain, or an entry fanning out to nodes−2 parallel branches joined by
// an exit (fewer than three nodes degenerate to a chain).
func fixedEdges(shape JobShape, nodes int) [][2]int {
	var edges [][2]int
	if shape == ShapeForkJoin && nodes >= 3 {
		sink := nodes - 1
		for b := 1; b < sink; b++ {
			edges = append(edges, [2]int{0, b}, [2]int{b, sink})
		}
		return edges
	}
	for i := 0; i+1 < nodes; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return edges
}

// sizeNodes gives nodes the template's memory and job-external payloads:
// nodes without a predecessor take the input, nodes without a successor
// the output.
func sizeNodes(t JobTemplate, nodes []dag.Node, edges [][2]int) {
	for i := range nodes {
		nodes[i].MemoryBytes, nodes[i].InputBytes, nodes[i].OutputBytes = t.MemoryBytes, t.InputBytes, t.OutputBytes
	}
	for _, e := range edges {
		nodes[e[0]].OutputBytes = 0
		nodes[e[1]].InputBytes = 0
	}
}

func addEdges(t JobTemplate, job *dag.Job, edges [][2]int) {
	for _, e := range edges {
		job.MustAddEdge(dag.Edge{From: dag.NodeID(e[0]), To: dag.NodeID(e[1]), Bytes: t.EdgeBytes})
	}
}

// layeredEdges connects consecutive layers of up to width nodes: every
// node picks one random predecessor in the previous layer, and every
// previous-layer node without a successor adopts a random next-layer
// node, so the graph has no stranded interior nodes.
func (g *JobGenerator) layeredEdges(nodes, width int) [][2]int {
	layerOf := func(i int) int { return i / width }
	layers := layerOf(nodes-1) + 1
	start := func(l int) int { return l * width }
	end := func(l int) int { // one past the layer's last node
		e := (l + 1) * width
		if e > nodes {
			e = nodes
		}
		return e
	}

	// Each node draws at most one predecessor and adopts at most one
	// successor, so 2·nodes bounds the edge count.
	edges := make([][2]int, 0, 2*nodes)
	add := func(from, to int) {
		if e := [2]int{from, to}; !slices.Contains(edges, e) {
			edges = append(edges, e)
		}
	}
	for l := 1; l < layers; l++ {
		ps, pe := start(l-1), end(l-1)
		for i := start(l); i < end(l); i++ {
			add(ps+g.src.Intn(pe-ps), i)
		}
		for p := ps; p < pe; p++ {
			linked := false
			for _, e := range edges {
				if e[0] == p {
					linked = true
					break
				}
			}
			if !linked {
				add(p, start(l)+g.src.Intn(end(l)-start(l)))
			}
		}
	}
	return edges
}

// JobFromGraph converts an application call graph into a DAG job: each
// non-pinned component becomes a node (demand = Cycles × CallsPerRun,
// the FromGraph derivation), interior edges become precedence edges, and
// edges crossing the pinned boundary become the adjacent node's
// job-external input/output. The offloadable interior must be acyclic —
// the pinned anchors that close the call graph's loops stay on the
// device, outside the job.
func JobFromGraph(g *callgraph.Graph) (*dag.Job, error) {
	// FromGraph validates the graph, proves there is offloadable work and
	// supplies the per-application deadline.
	tmpl, err := FromGraph(g)
	if err != nil {
		return nil, err
	}

	comps := g.Components()
	type payload struct{ in, out, interior map[int]int64 }
	p := payload{in: map[int]int64{}, out: map[int]int64{}, interior: map[int]int64{}}
	interiorKey := func(from, to int) int { return from*len(comps) + to }
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		bytes := int64(float64(e.Bytes) * e.CallsPerRun)
		fromPinned, toPinned := comps[e.From].Pinned, comps[e.To].Pinned
		switch {
		case fromPinned && toPinned:
			// Device-internal traffic; the job never sees it.
		case fromPinned:
			p.in[int(e.To)] += bytes
		case toPinned:
			p.out[int(e.From)] += bytes
		default:
			// Parallel edges merge: the job carries one edge per pair.
			p.interior[interiorKey(int(e.From), int(e.To))] += bytes
		}
	}

	job := dag.New(g.Name(), tmpl.Deadline)
	idmap := make(map[int]dag.NodeID)
	for ci, c := range comps {
		if c.Pinned {
			continue
		}
		id, err := job.AddNode(dag.Node{
			Name:             c.Name,
			Cycles:           c.Cycles * c.CallsPerRun,
			MemoryBytes:      c.MemoryBytes,
			InputBytes:       p.in[ci],
			OutputBytes:      p.out[ci],
			ParallelFraction: c.ParallelFraction,
		})
		if err != nil {
			return nil, err
		}
		idmap[ci] = id
	}
	for ci := range comps {
		for cj := range comps {
			bytes, ok := p.interior[interiorKey(ci, cj)]
			if !ok {
				continue
			}
			if err := job.AddEdge(dag.Edge{From: idmap[ci], To: idmap[cj], Bytes: bytes}); err != nil {
				return nil, err
			}
		}
	}
	if err := job.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %s: offloadable interior is not a DAG: %w", g.Name(), err)
	}
	return job, nil
}

// JobStream schedules count job arrivals on eng, drawing gaps from
// arrivals and jobs from gen, invoking submit for each — Stream for DAG
// workloads.
func JobStream(eng *sim.Engine, arrivals Arrivals, gen *JobGenerator, count int, submit func(*dag.Job)) {
	if count <= 0 {
		return
	}
	var arrive func()
	remaining := count
	arrive = func() {
		job := gen.Next()
		remaining--
		submit(job)
		if remaining > 0 {
			eng.After(arrivals.Next(eng.Now()), arrive)
		}
	}
	eng.After(arrivals.Next(eng.Now()), arrive)
}
