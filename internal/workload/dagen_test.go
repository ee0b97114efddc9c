package workload

import (
	"math"
	"testing"

	"offload/internal/callgraph"
	"offload/internal/dag"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sim"
)

func pipelineTemplate() JobTemplate {
	return JobTemplate{
		App: "dagtest", Shape: ShapePipeline, Nodes: 5,
		MeanCycles: 1e9, CyclesSigma: 0.3,
		EdgeBytes: 64 << 10, InputBytes: 1 << 20, OutputBytes: 1 << 19,
		Deadline: 600,
	}
}

func TestJobTemplateValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*JobTemplate)
	}{
		{"no app", func(j *JobTemplate) { j.App = "" }},
		{"bad shape", func(j *JobTemplate) { j.Shape = "ring" }},
		{"zero nodes", func(j *JobTemplate) { j.Nodes = 0 }},
		{"zero cycles", func(j *JobTemplate) { j.MeanCycles = 0 }},
		{"negative sigma", func(j *JobTemplate) { j.CyclesSigma = -1 }},
		{"negative bytes", func(j *JobTemplate) { j.EdgeBytes = -1 }},
		{"negative deadline", func(j *JobTemplate) { j.Deadline = -1 }},
		{"layered without width", func(j *JobTemplate) { j.Shape = ShapeLayered; j.Width = 0 }},
	}
	for _, tc := range cases {
		tmpl := pipelineTemplate()
		tc.mut(&tmpl)
		if _, err := NewJobGenerator(rng.New(1), tmpl); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewJobGenerator(rng.New(1), pipelineTemplate()); err != nil {
		t.Fatalf("valid template rejected: %v", err)
	}
}

func TestJobGeneratorShapes(t *testing.T) {
	degree := func(j *dag.Job) (in, out map[dag.NodeID]int) {
		in, out = map[dag.NodeID]int{}, map[dag.NodeID]int{}
		for _, e := range j.Edges() {
			out[e.From]++
			in[e.To]++
		}
		return
	}

	t.Run("pipeline", func(t *testing.T) {
		gen, err := NewJobGenerator(rng.New(2), pipelineTemplate())
		if err != nil {
			t.Fatal(err)
		}
		j := gen.Next()
		if err := j.Validate(); err != nil {
			t.Fatalf("generated job invalid: %v", err)
		}
		if j.Len() != 5 || len(j.Edges()) != 4 {
			t.Fatalf("pipeline has %d nodes / %d edges, want 5/4", j.Len(), len(j.Edges()))
		}
		in, out := degree(j)
		for id := dag.NodeID(0); id < 5; id++ {
			if id > 0 && in[id] != 1 {
				t.Errorf("node %d in-degree %d, want 1", id, in[id])
			}
			if id < 4 && out[id] != 1 {
				t.Errorf("node %d out-degree %d, want 1", id, out[id])
			}
		}
		// Entry carries external input, exit external output, interior none.
		if n := j.Node(0); n.InputBytes != 1<<20 {
			t.Errorf("entry InputBytes %d, want %d", n.InputBytes, 1<<20)
		}
		if n := j.Node(4); n.OutputBytes != 1<<19 {
			t.Errorf("exit OutputBytes %d, want %d", n.OutputBytes, 1<<19)
		}
		if n := j.Node(2); n.InputBytes != 0 || n.OutputBytes != 0 {
			t.Errorf("interior node carries external bytes: %+v", n)
		}
	})

	t.Run("fork-join", func(t *testing.T) {
		tmpl := pipelineTemplate()
		tmpl.Shape = ShapeForkJoin
		tmpl.Nodes = 8
		gen, err := NewJobGenerator(rng.New(3), tmpl)
		if err != nil {
			t.Fatal(err)
		}
		j := gen.Next()
		if err := j.Validate(); err != nil {
			t.Fatalf("generated job invalid: %v", err)
		}
		in, out := degree(j)
		if out[0] != 6 || in[7] != 6 {
			t.Fatalf("fork-join entry out=%d exit in=%d, want 6/6", out[0], in[7])
		}
		for id := dag.NodeID(1); id < 7; id++ {
			if in[id] != 1 || out[id] != 1 {
				t.Errorf("branch %d degree in=%d out=%d, want 1/1", id, in[id], out[id])
			}
		}
	})

	t.Run("fork-join degenerates", func(t *testing.T) {
		tmpl := pipelineTemplate()
		tmpl.Shape = ShapeForkJoin
		tmpl.Nodes = 2
		gen, err := NewJobGenerator(rng.New(4), tmpl)
		if err != nil {
			t.Fatal(err)
		}
		j := gen.Next()
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if j.Len() != 2 || len(j.Edges()) != 1 {
			t.Fatalf("2-node fork-join: %d nodes / %d edges, want 2/1", j.Len(), len(j.Edges()))
		}
	})

	t.Run("layered", func(t *testing.T) {
		tmpl := pipelineTemplate()
		tmpl.Shape = ShapeLayered
		tmpl.Nodes = 12
		tmpl.Width = 3
		gen, err := NewJobGenerator(rng.New(5), tmpl)
		if err != nil {
			t.Fatal(err)
		}
		for draw := 0; draw < 20; draw++ {
			j := gen.Next()
			if err := j.Validate(); err != nil {
				t.Fatalf("draw %d invalid: %v", draw, err)
			}
			in, out := degree(j)
			// Interior nodes are never stranded: everyone below the top
			// layer has a predecessor, everyone above the bottom layer a
			// successor.
			for id := dag.NodeID(3); id < 12; id++ {
				if in[id] == 0 {
					t.Fatalf("draw %d: node %d below top layer has no predecessor", draw, id)
				}
			}
			for id := dag.NodeID(0); id < 9; id++ {
				if out[id] == 0 {
					t.Fatalf("draw %d: node %d above bottom layer has no successor", draw, id)
				}
			}
			// Edges only link consecutive layers.
			for _, e := range j.Edges() {
				if int(e.To)/3-int(e.From)/3 != 1 {
					t.Fatalf("draw %d: edge %v crosses non-adjacent layers", draw, e)
				}
			}
		}
	})
}

func TestJobGeneratorDeterministicAndUnbiased(t *testing.T) {
	tmpl := pipelineTemplate()
	a, _ := NewJobGenerator(rng.New(11), tmpl)
	b, _ := NewJobGenerator(rng.New(11), tmpl)
	for i := 0; i < 10; i++ {
		ja, jb := a.Next(), b.Next()
		for id := dag.NodeID(0); id < dag.NodeID(tmpl.Nodes); id++ {
			if ja.Node(id).Cycles != jb.Node(id).Cycles {
				t.Fatalf("draw %d node %d: same-seeded generators diverged", i, id)
			}
		}
	}
	if a.Generated() != 10 {
		t.Fatalf("Generated = %d, want 10", a.Generated())
	}

	// Unit-mean lognormal scaling keeps the mean node demand on template.
	gen, _ := NewJobGenerator(rng.New(12), tmpl)
	sum, n := 0.0, 0
	for i := 0; i < 4000; i++ {
		j := gen.Next()
		for id := dag.NodeID(0); id < dag.NodeID(tmpl.Nodes); id++ {
			sum += j.Node(id).Cycles
			n++
		}
	}
	mean := sum / float64(n)
	if math.Abs(mean-tmpl.MeanCycles)/tmpl.MeanCycles > 0.02 {
		t.Fatalf("mean node demand %g, want ~%g", mean, tmpl.MeanCycles)
	}
}

func TestJobFromGraphMatchesFromGraph(t *testing.T) {
	for _, name := range callgraph.TemplateNames() {
		g := callgraph.Templates()[name]
		tmpl, err := FromGraph(g)
		if err != nil {
			t.Fatalf("%s: FromGraph: %v", name, err)
		}
		job, err := JobFromGraph(g)
		if err != nil {
			t.Fatalf("%s: JobFromGraph: %v", name, err)
		}
		if job.App() != g.Name() || job.Deadline() != tmpl.Deadline {
			t.Errorf("%s: app/deadline mismatch", name)
		}
		// Total node demand equals the flat template's offloadable demand.
		if got := job.TotalCycles(); math.Abs(got-tmpl.MeanCycles) > 1e-6*tmpl.MeanCycles {
			t.Errorf("%s: job demand %g, template %g", name, got, tmpl.MeanCycles)
		}
		// Boundary bytes are conserved: summed external input/output across
		// nodes equals the flat template's payloads.
		var in, out int64
		for _, n := range job.Nodes() {
			in += n.InputBytes
			out += n.OutputBytes
		}
		if in != tmpl.InputBytes || out != tmpl.OutputBytes {
			t.Errorf("%s: boundary bytes (%d, %d), template (%d, %d)",
				name, in, out, tmpl.InputBytes, tmpl.OutputBytes)
		}
	}
}

func TestJobFromGraphRejectsCyclicInterior(t *testing.T) {
	g := callgraph.New("cyclic-app")
	a := g.MustAddComponent(callgraph.Component{Name: "a", Cycles: 1e9, CallsPerRun: 1})
	b := g.MustAddComponent(callgraph.Component{Name: "b", Cycles: 1e9, CallsPerRun: 1})
	g.MustAddEdge(callgraph.Edge{From: a, To: b, Bytes: 1, CallsPerRun: 1})
	g.MustAddEdge(callgraph.Edge{From: b, To: a, Bytes: 1, CallsPerRun: 1})
	if _, err := JobFromGraph(g); err == nil {
		t.Fatal("cyclic offloadable interior accepted")
	}
}

func TestJobStream(t *testing.T) {
	eng := sim.NewEngine()
	gen, err := NewJobGenerator(rng.New(13), pipelineTemplate())
	if err != nil {
		t.Fatal(err)
	}
	var got []*dag.Job
	JobStream(eng, &Fixed{Gap: 2}, gen, 4, func(j *dag.Job) { got = append(got, j) })
	eng.Run()
	if len(got) != 4 {
		t.Fatalf("submitted %d jobs, want 4", len(got))
	}
	if eng.Now() != 8 {
		t.Fatalf("last arrival at %v, want 8", eng.Now())
	}

	// Zero and negative counts schedule nothing.
	JobStream(eng, &Fixed{Gap: 1}, gen, 0, func(*dag.Job) { t.Fatal("submitted") })
	JobStream(eng, &Fixed{Gap: 1}, gen, -3, func(*dag.Job) { t.Fatal("submitted") })
	eng.Run()
}

// --- satellite: Stream early-stop and Clone ID-base coverage ----------

func TestStreamHaltStopsEarly(t *testing.T) {
	eng := sim.NewEngine()
	gen, err := StandardMix(rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	Stream(eng, &Fixed{Gap: 1}, gen, 100, func(*model.Task) {
		n++
		if n == 7 {
			eng.Halt()
		}
	})
	eng.Run()
	if n != 7 {
		t.Fatalf("submitted %d tasks after halt at 7, want 7", n)
	}
	if gen.Generated() != 7 {
		t.Fatalf("generator drew %d tasks, want 7", gen.Generated())
	}
	// The engine can resume: the stream's pending arrival continues.
	eng.Run()
	if n != 100 {
		t.Fatalf("submitted %d tasks after resume, want 100", n)
	}
}

func TestCloneBaseCollisions(t *testing.T) {
	gen, err := StandardMix(rng.New(15))
	if err != nil {
		t.Fatal(err)
	}

	// Disjoint ue<<32 bases keep IDs globally unique across shards.
	const perUE = 100
	seen := map[model.TaskID]bool{}
	for ue := 0; ue < 4; ue++ {
		c := gen.Clone(rng.New(uint64(20+ue)), model.TaskID(ue)<<32)
		for i := 0; i < perUE; i++ {
			id := c.Next(0).ID
			if seen[id] {
				t.Fatalf("ue %d draw %d: duplicate ID %d across disjoint bases", ue, i, id)
			}
			seen[id] = true
		}
	}

	// Overlapping bases collide — the documented contract is that callers
	// must keep bases disjoint; this pins the failure mode the sharded
	// fleet's ue<<32 scheme exists to avoid.
	c1 := gen.Clone(rng.New(30), 0)
	c2 := gen.Clone(rng.New(31), perUE/2)
	ids := map[model.TaskID]bool{}
	for i := 0; i < perUE; i++ {
		ids[c1.Next(0).ID] = true
	}
	collided := false
	for i := 0; i < perUE; i++ {
		if ids[c2.Next(0).ID] {
			collided = true
			break
		}
	}
	if !collided {
		t.Fatal("overlapping clone bases did not collide; the disjointness requirement is untested")
	}
}
