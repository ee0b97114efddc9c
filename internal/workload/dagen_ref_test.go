package workload_test

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"offload/internal/core"
	"offload/internal/dag"
	"offload/internal/edge"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/sim"
	"offload/internal/workload"
)

// refJob, refGenerator.Next, refJob.Validate and refPlace are the DAG job
// builder, generator and rank placer as they were before jobs shared
// their template's structure, kept verbatim (bar the receiver types) as
// the reference the differential fuzz compares against: every job is
// built node by node and edge by edge, every estimate lives in a map and
// the serverless slot table is always functionSlots wide.
type refJob struct {
	app      string
	deadline sim.Duration

	nodes  []dag.Node
	edges  []dag.Edge
	byName map[string]dag.NodeID

	preds, succs [][]dag.NodeID
	inBytes      []int64
	outBytes     []int64
	topo         []dag.NodeID
	validated    bool
}

func refNew(app string, deadline sim.Duration) *refJob {
	return &refJob{app: app, deadline: deadline, byName: make(map[string]dag.NodeID)}
}

func (j *refJob) App() string            { return j.app }
func (j *refJob) Deadline() sim.Duration { return j.deadline }
func (j *refJob) Len() int               { return len(j.nodes) }
func (j *refJob) Node(id dag.NodeID) dag.Node {
	return j.nodes[id]
}
func (j *refJob) TopoOrder() []dag.NodeID          { return slices.Clone(j.topo) }
func (j *refJob) Preds(id dag.NodeID) []dag.NodeID { return j.preds[id] }
func (j *refJob) Succs(id dag.NodeID) []dag.NodeID { return j.succs[id] }
func (j *refJob) TaskSizes(id dag.NodeID) (inBytes, outBytes int64) {
	n := j.nodes[id]
	return n.InputBytes + j.inBytes[id], n.OutputBytes + j.outBytes[id]
}

// MustAddNode and MustAddEdge keep the builder's checks the generator
// relies on: unique names and known, distinct endpoints.
func (j *refJob) MustAddNode(n dag.Node) dag.NodeID {
	if _, dup := j.byName[n.Name]; dup || n.Name == "" {
		panic(fmt.Sprintf("ref: bad node %q", n.Name))
	}
	id := dag.NodeID(len(j.nodes))
	j.nodes = append(j.nodes, n)
	j.byName[n.Name] = id
	j.validated = false
	return id
}

func (j *refJob) MustAddEdge(e dag.Edge) {
	if e.From == e.To || int(e.From) >= len(j.nodes) || int(e.To) >= len(j.nodes) {
		panic(fmt.Sprintf("ref: bad edge %v", e))
	}
	for _, ex := range j.edges {
		if ex.From == e.From && ex.To == e.To {
			panic(fmt.Sprintf("ref: duplicate edge %v", e))
		}
	}
	j.edges = append(j.edges, e)
	j.validated = false
}

func (j *refJob) Validate() error {
	if len(j.nodes) == 0 {
		return fmt.Errorf("dag: %s: empty job", j.app)
	}
	if j.deadline < 0 {
		return fmt.Errorf("dag: %s: negative deadline", j.app)
	}
	n := len(j.nodes)
	j.preds = make([][]dag.NodeID, n)
	j.succs = make([][]dag.NodeID, n)
	j.inBytes = make([]int64, n)
	j.outBytes = make([]int64, n)
	indeg := make([]int, n)
	for _, e := range j.edges {
		j.succs[e.From] = append(j.succs[e.From], e.To)
		j.preds[e.To] = append(j.preds[e.To], e.From)
		j.outBytes[e.From] += e.Bytes
		j.inBytes[e.To] += e.Bytes
		indeg[e.To]++
	}
	for id := range j.preds {
		refSortIDs(j.preds[id])
		refSortIDs(j.succs[id])
	}
	ready := make([]dag.NodeID, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			ready = append(ready, dag.NodeID(id))
		}
	}
	j.topo = make([]dag.NodeID, 0, n)
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		j.topo = append(j.topo, id)
		for _, s := range j.succs[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = refInsertSorted(ready, s)
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
	j.validated = true
	return nil
}

func refSortIDs(ids []dag.NodeID) {
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
}

func refInsertSorted(ids []dag.NodeID, id dag.NodeID) []dag.NodeID {
	i := sort.Search(len(ids), func(k int) bool { return ids[k] >= id })
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

type refGenerator struct {
	src  *rng.Source
	tmpl workload.JobTemplate
}

func (g *refGenerator) Next() *refJob {
	t := g.tmpl

	cycles := make([]float64, t.Nodes)
	for i := range cycles {
		scale := 1.0
		if t.CyclesSigma > 0 {
			scale = g.src.LogNormal(-t.CyclesSigma*t.CyclesSigma/2, t.CyclesSigma)
		}
		cycles[i] = t.MeanCycles * scale
	}

	var edges [][2]int
	switch t.Shape {
	case workload.ShapePipeline:
		for i := 0; i+1 < t.Nodes; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
	case workload.ShapeForkJoin:
		if t.Nodes < 3 {
			for i := 0; i+1 < t.Nodes; i++ {
				edges = append(edges, [2]int{i, i + 1})
			}
			break
		}
		sink := t.Nodes - 1
		for b := 1; b < sink; b++ {
			edges = append(edges, [2]int{0, b}, [2]int{b, sink})
		}
	case workload.ShapeLayered:
		edges = g.layeredEdges(t.Nodes, t.Width)
	}

	hasPred := make([]bool, t.Nodes)
	hasSucc := make([]bool, t.Nodes)
	for _, e := range edges {
		hasSucc[e[0]] = true
		hasPred[e[1]] = true
	}

	job := refNew(t.App, t.Deadline)
	for i := 0; i < t.Nodes; i++ {
		n := dag.Node{
			Name:        fmt.Sprintf("n%02d", i),
			Cycles:      cycles[i],
			MemoryBytes: t.MemoryBytes,
		}
		if !hasPred[i] {
			n.InputBytes = t.InputBytes
		}
		if !hasSucc[i] {
			n.OutputBytes = t.OutputBytes
		}
		job.MustAddNode(n)
	}
	for _, e := range edges {
		job.MustAddEdge(dag.Edge{From: dag.NodeID(e[0]), To: dag.NodeID(e[1]), Bytes: t.EdgeBytes})
	}
	return job
}

func (g *refGenerator) layeredEdges(nodes, width int) [][2]int {
	layerOf := func(i int) int { return i / width }
	layers := layerOf(nodes-1) + 1
	start := func(l int) int { return l * width }
	end := func(l int) int {
		e := (l + 1) * width
		if e > nodes {
			e = nodes
		}
		return e
	}

	var edges [][2]int
	have := make(map[[2]int]bool)
	add := func(from, to int) {
		e := [2]int{from, to}
		if !have[e] {
			have[e] = true
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

const refFunctionSlots = 256

func refPlace(job *refJob, env *sched.Env, pred sched.Predictor) []model.Placement {
	n := job.Len()
	avail := env.Available()

	w := make([]map[model.Placement]refEstimate, n)
	wbar := make([]float64, n)
	for id := 0; id < n; id++ {
		w[id] = refNodeEstimates(job, dag.NodeID(id), env, pred)
		sum, cnt := 0.0, 0
		for _, p := range avail {
			if v := w[id][p].total(); !math.IsInf(v, 1) {
				sum += v
				cnt++
			}
		}
		if cnt == 0 {
			wbar[id] = w[id][model.PlaceLocal].total()
			if math.IsInf(wbar[id], 1) {
				wbar[id] = 0
			}
			continue
		}
		wbar[id] = sum / float64(cnt)
	}

	rank := make([]float64, n)
	topo := job.TopoOrder()
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		best := 0.0
		for _, s := range job.Succs(id) {
			if rank[s] > best {
				best = rank[s]
			}
		}
		rank[id] = wbar[id] + best
	}

	order := make([]dag.NodeID, len(topo))
	copy(order, topo)
	for i := 1; i < len(order); i++ {
		for k := i; k > 0; k-- {
			a, b := order[k-1], order[k]
			if rank[b] > rank[a] || (rank[b] == rank[a] && b < a) {
				order[k-1], order[k] = b, a
			} else {
				break
			}
		}
	}

	slots := refSlotTable(env)
	channels := refPathChannels(env)
	aft := make([]float64, n)
	out := make([]model.Placement, n)
	for _, id := range order {
		ready := 0.0
		for _, p := range job.Preds(id) {
			if aft[p] > ready {
				ready = aft[p]
			}
		}
		bestP, bestSlot := model.PlaceUnknown, -1
		bestFinish, bestSlotBusy, bestChFree := math.Inf(1), 0.0, 0.0
		for _, p := range avail {
			e := w[id][p]
			if math.IsInf(e.total(), 1) {
				continue
			}
			si, slotFree := slots.earliest(p)
			var fin, slotBusy, chFree float64
			if c := channels[p]; c != nil {
				upEnd := math.Max(ready, c.free) + e.up
				execEnd := math.Max(upEnd, slotFree) + e.exec
				fin = execEnd + e.down
				slotBusy = execEnd
				chFree = upEnd + e.down
			} else {
				fin = math.Max(ready, slotFree) + e.total()
				slotBusy = fin
			}
			if fin < bestFinish {
				bestP, bestSlot = p, si
				bestFinish, bestSlotBusy, bestChFree = fin, slotBusy, chFree
			}
		}
		if bestP == model.PlaceUnknown {
			bestP = model.PlaceLocal
			si, free := slots.earliest(bestP)
			bestFinish = math.Max(ready, free) + wbar[id]
			bestSlot, bestSlotBusy = si, bestFinish
		}
		out[id] = bestP
		aft[id] = bestFinish
		slots.occupy(bestP, bestSlot, bestSlotBusy)
		if c := channels[bestP]; c != nil {
			c.free = bestChFree
		}
	}
	return out
}

type refEstimate struct {
	up, exec, down float64
}

func (e refEstimate) total() float64 { return e.up + e.exec + e.down }

var refInfeasible = refEstimate{exec: math.Inf(1)}

func refNodeEstimates(job *refJob, id dag.NodeID, env *sched.Env, pred sched.Predictor) map[model.Placement]refEstimate {
	node := job.Node(id)
	in, out := job.TaskSizes(id)
	probe := &model.Task{
		App:              job.App() + "/" + node.Name,
		Component:        node.Name,
		InputBytes:       in,
		OutputBytes:      out,
		Cycles:           node.Cycles,
		MemoryBytes:      node.MemoryBytes,
		ParallelFraction: node.ParallelFraction,
		Deadline:         job.Deadline(),
	}
	probe.Cycles = pred.PredictCycles(probe)

	ests := map[model.Placement]refEstimate{
		model.PlaceLocal:    refInfeasible,
		model.PlaceEdge:     refInfeasible,
		model.PlaceFunction: refInfeasible,
		model.PlaceVM:       refInfeasible,
	}
	if dev := env.Device; dev != nil && !dev.Dead() {
		ests[model.PlaceLocal] = refEstimate{exec: float64(dev.ExecTime(probe))}
	}
	if env.Edge != nil {
		cfg := env.Edge.Config()
		if cfg.MemoryPerServer == 0 || probe.MemoryBytes <= cfg.MemoryPerServer {
			ests[model.PlaceEdge] = refEstimate{
				up:   float64(env.EdgePath.EstimateTransfer(in, network.Uplink)),
				exec: float64(env.Edge.ExecTime(probe)),
				down: float64(env.EdgePath.EstimateTransfer(out, network.Downlink)),
			}
		}
	}
	if env.Functions != nil {
		if dec, err := env.Functions.EstimateFor(probe, probe.Cycles); err == nil {
			ests[model.PlaceFunction] = refEstimate{
				up:   float64(env.CloudPath.EstimateTransfer(in, network.Uplink)),
				exec: float64(dec.ExpectedTime),
				down: float64(env.CloudPath.EstimateTransfer(out, network.Downlink)),
			}
		}
	}
	if env.VM != nil {
		path := env.CloudPath
		ests[model.PlaceVM] = refEstimate{
			up:   float64(path.EstimateTransfer(in, network.Uplink)),
			exec: float64(env.VM.ExecTime(probe)),
			down: float64(path.EstimateTransfer(out, network.Downlink)),
		}
	}
	return ests
}

type refPathChannel struct {
	free float64
}

func refPathChannels(env *sched.Env) map[model.Placement]*refPathChannel {
	channels := make(map[model.Placement]*refPathChannel)
	byPath := make(map[*network.Path]*refPathChannel)
	add := func(p model.Placement, path *network.Path) {
		if path == nil || !path.Config().Serialize {
			return
		}
		c, ok := byPath[path]
		if !ok {
			c = &refPathChannel{}
			byPath[path] = c
		}
		channels[p] = c
	}
	add(model.PlaceEdge, env.EdgePath)
	add(model.PlaceFunction, env.CloudPath)
	add(model.PlaceVM, env.CloudPath)
	return channels
}

type refSlotPool map[model.Placement][]float64

func refSlotTable(env *sched.Env) refSlotPool {
	s := refSlotPool{model.PlaceLocal: make([]float64, max(1, env.Device.Config().Cores))}
	if env.Edge != nil {
		cfg := env.Edge.Config()
		s[model.PlaceEdge] = make([]float64, max(1, cfg.Servers*cfg.Cores))
	}
	if env.Functions != nil {
		s[model.PlaceFunction] = make([]float64, refFunctionSlots)
	}
	if env.VM != nil {
		s[model.PlaceVM] = make([]float64, max(1, env.VM.Instances()*env.VM.Config().Cores))
	}
	return s
}

func (s refSlotPool) earliest(p model.Placement) (int, float64) {
	slots := s[p]
	if len(slots) == 0 {
		return -1, math.Inf(1)
	}
	best, bestT := 0, slots[0]
	for i, t := range slots {
		if t < bestT {
			best, bestT = i, t
		}
	}
	return best, bestT
}

func (s refSlotPool) occupy(p model.Placement, slot int, until float64) {
	if slots := s[p]; slot >= 0 && slot < len(slots) {
		slots[slot] = until
	}
}

// dagSubstrate is E22's cell: the default smartphone+serverless system
// plus a one-box, two-core edge, placing jobs by rank. Variant bits
// change it: 1 adds the default VM fleet, which shares the cloud path's
// airtime channel with serverless; 2 perturbs demand predictions, so
// every PredictCycles call draws from the predictor's stream; 8 makes
// the cloud path full-duplex, so its transfers do not queue.
func dagSubstrate(t testing.TB, seed uint64, variant uint8) *core.System {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Policy = core.PolicyDeadlineAware
	cfg.ArrivalRateHint = 0.05
	cfg.Edge = &edge.Config{
		Name: "edge-nano", Servers: 1, Cores: 2, CPUHz: 3 * model.GHz,
		HourlyCostUSD: 0.10, MemoryPerServer: 8 * model.GB,
	}
	if variant&1 == 0 {
		cfg.VM = nil
	}
	if variant&2 != 0 {
		cfg.PredictionNoise = 0.2
	}
	if variant&8 != 0 {
		cloud := *cfg.CloudPath
		cloud.Serialize = false
		cfg.CloudPath = &cloud
	}
	cfg.DAG = &core.DAGConfig{Placement: core.DAGRank}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// dagTemplate is E22's node population in the given shape.
func dagTemplate(shape workload.JobShape, nodes, width int) workload.JobTemplate {
	return workload.JobTemplate{
		App: "dag-" + string(shape), Shape: shape, Nodes: nodes, Width: width,
		MeanCycles: 1.5e9, CyclesSigma: 0.2,
		EdgeBytes: 2 * model.MB, InputBytes: 4 * model.MB, OutputBytes: 1 * model.MB,
		MemoryBytes: 512 * model.MB, Deadline: 3600,
	}
}

// checkJobMatches compares everything a job exposes with the reference
// job, floats bit for bit.
func checkJobMatches(t *testing.T, k int, got *dag.Job, want *refJob) {
	t.Helper()
	if got.App() != want.App() || got.Deadline() != want.Deadline() || got.Len() != want.Len() {
		t.Fatalf("job %d: header %s/%v/%d, want %s/%v/%d", k,
			got.App(), got.Deadline(), got.Len(), want.App(), want.Deadline(), want.Len())
	}
	for i, n := range got.Nodes() {
		w := want.nodes[i]
		if n.Name != w.Name || math.Float64bits(n.Cycles) != math.Float64bits(w.Cycles) ||
			n.MemoryBytes != w.MemoryBytes || n.InputBytes != w.InputBytes ||
			n.OutputBytes != w.OutputBytes ||
			math.Float64bits(n.ParallelFraction) != math.Float64bits(w.ParallelFraction) {
			t.Fatalf("job %d node %d: %+v, want %+v", k, i, n, w)
		}
	}
	if !slices.Equal(got.Edges(), want.edges) {
		t.Fatalf("job %d: edges %v, want %v", k, got.Edges(), want.edges)
	}
	if !slices.Equal(got.TopoOrder(), want.TopoOrder()) {
		t.Fatalf("job %d: topo %v, want %v", k, got.TopoOrder(), want.TopoOrder())
	}
	for i := range got.Len() {
		id := dag.NodeID(i)
		if !slices.Equal(got.Preds(id), want.Preds(id)) || !slices.Equal(got.Succs(id), want.Succs(id)) {
			t.Fatalf("job %d node %d: preds/succs %v/%v, want %v/%v", k, i,
				got.Preds(id), got.Succs(id), want.Preds(id), want.Succs(id))
		}
		gi, gout := got.TaskSizes(id)
		wi, wout := want.TaskSizes(id)
		if gi != wi || gout != wout {
			t.Fatalf("job %d node %d: task sizes %d/%d, want %d/%d", k, i, gi, gout, wi, wout)
		}
		if app := want.App() + "/" + want.Node(id).Name; got.TaskApp(id) != app {
			t.Fatalf("job %d node %d: task app %q, want %q", k, i, got.TaskApp(id), app)
		}
	}
	if _, ok := got.Lookup(want.nodes[0].Name); !ok {
		t.Fatalf("job %d: node %q not found by name", k, want.nodes[0].Name)
	}
}

// FuzzJobsMatchReference draws jobs from random templates of every shape
// through both the generator and the reference, and checks the jobs and
// their rank placements on the E22 substrate agree bit for bit — the
// placer's predictor streams included.
func FuzzJobsMatchReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(8), uint8(0), uint8(2), uint8(0))
	f.Add(uint64(2), uint8(1), uint16(16), uint8(0), uint8(2), uint8(1))
	f.Add(uint64(3), uint8(2), uint16(12), uint8(3), uint8(2), uint8(2))
	f.Add(uint64(4), uint8(1), uint16(300), uint8(0), uint8(0), uint8(3))
	f.Add(uint64(5), uint8(2), uint16(1), uint8(1), uint8(7), uint8(4))
	f.Add(uint64(6), uint8(1), uint16(2), uint8(0), uint8(1), uint8(7))
	f.Add(uint64(7), uint8(1), uint16(40), uint8(0), uint8(2), uint8(24))
	f.Add(uint64(8), uint8(2), uint16(60), uint8(5), uint8(3), uint8(19))

	shapes := []workload.JobShape{workload.ShapePipeline, workload.ShapeForkJoin, workload.ShapeLayered}
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, nodes uint16, width, sigma, variant uint8) {
		tmpl := dagTemplate(shapes[int(shape)%len(shapes)], int(nodes)%320+1, int(width)%6+1)
		tmpl.CyclesSigma = float64(sigma%8) / 10
		if variant&4 != 0 {
			// Too big for the edge box and for any function: only the
			// device and the VM can serve a node.
			tmpl.MemoryBytes = 16 * model.GB
		}
		if variant&16 != 0 {
			// Payloads small enough that transfers hardly delay a node,
			// so wide jobs keep many functions busy at once.
			tmpl.EdgeBytes, tmpl.InputBytes, tmpl.OutputBytes = 1<<10, 1<<10, 1<<10
		}
		gen, err := workload.NewJobGenerator(rng.New(seed), tmpl)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refGenerator{src: rng.New(seed), tmpl: tmpl}
		sys := dagSubstrate(t, seed, variant)
		refSys := dagSubstrate(t, seed, variant)

		for k := 0; k < 4; k++ {
			got, want := gen.Next(), ref.Next()
			if tmpl.Shape == workload.ShapeLayered {
				if err := got.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			if err := want.Validate(); err != nil {
				t.Fatal(err)
			}
			checkJobMatches(t, k, got, want)
			gp := dag.Rank{}.Place(got, sys.Env, sys.Scheduler.Predictor())
			wp := refPlace(want, refSys.Env, refSys.Scheduler.Predictor())
			if !slices.Equal(gp, wp) {
				t.Fatalf("job %d: rank placements %v, want %v", k, gp, wp)
			}
		}
		probe := &model.Task{App: "probe", Cycles: 1e9}
		if a, b := sys.Scheduler.Predictor().PredictCycles(probe), refSys.Scheduler.Predictor().PredictCycles(probe); a != b {
			t.Fatalf("predictor streams diverged: next prediction %g, want %g", a, b)
		}
	})
}

// TestSharedJobCopiesOnWrite mutates jobs that share their template's
// structure and checks no mutation reaches a sibling or a later job.
func TestSharedJobCopiesOnWrite(t *testing.T) {
	for _, shape := range []workload.JobShape{workload.ShapePipeline, workload.ShapeForkJoin} {
		t.Run(string(shape), func(t *testing.T) {
			tmpl := dagTemplate(shape, 6, 0)
			gen, err := workload.NewJobGenerator(rng.New(9), tmpl)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refGenerator{src: rng.New(9), tmpl: tmpl}
			a, b, c := gen.Next(), gen.Next(), gen.Next()
			ra, rb, rc := ref.Next(), ref.Next(), ref.Next()
			for _, r := range []*refJob{ra, rb, rc} {
				if err := r.Validate(); err != nil {
					t.Fatal(err)
				}
			}

			extra := a.MustAddNode(dag.Node{Name: "extra", Cycles: 1})
			a.MustAddEdge(dag.Edge{From: 5, To: extra, Bytes: 7})
			c.MustAddEdge(dag.Edge{From: 0, To: 5, Bytes: 9})
			if shape == workload.ShapePipeline {
				c.MustAddEdge(dag.Edge{From: 1, To: 3, Bytes: 11})
			}
			for _, j := range []*dag.Job{a, c} {
				if err := j.Validate(); err != nil {
					t.Fatal(err)
				}
			}

			checkJobMatches(t, 1, b, rb)
			if _, ok := b.Lookup("extra"); ok {
				t.Fatal("a sibling's new node is visible by name")
			}
			if e := a.Edges(); e[len(e)-1] != (dag.Edge{From: 5, To: extra, Bytes: 7}) {
				t.Fatalf("a's edges end %v", e[len(e)-1])
			}
			if e := c.Edges(); !slices.Contains(e, dag.Edge{From: 0, To: 5, Bytes: 9}) ||
				slices.Contains(e, dag.Edge{From: 5, To: extra, Bytes: 7}) {
				t.Fatalf("c's edges %v mix in a sibling's", e)
			}
			if got := a.Preds(extra); !slices.Equal(got, []dag.NodeID{5}) {
				t.Fatalf("a's new node preds %v", got)
			}
			if got := a.TaskApp(extra); got != tmpl.App+"/extra" {
				t.Fatalf("a's new node task app %q", got)
			}

			rd := ref.Next()
			if err := rd.Validate(); err != nil {
				t.Fatal(err)
			}
			checkJobMatches(t, 3, gen.Next(), rd)
		})
	}
}

// TestShareRejectsForeignNodes checks Share only accepts the job's own
// node names, with valid weights.
func TestShareRejectsForeignNodes(t *testing.T) {
	gen, err := workload.NewJobGenerator(rng.New(1), dagTemplate(workload.ShapePipeline, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	job := gen.Next()
	for name, mut := range map[string]func([]dag.Node) []dag.Node{
		"short":    func(n []dag.Node) []dag.Node { return n[:2] },
		"renamed":  func(n []dag.Node) []dag.Node { n[1].Name = "x"; return n },
		"negative": func(n []dag.Node) []dag.Node { n[2].Cycles = -1; return n },
	} {
		if _, err := job.Share(mut(job.Nodes())); err == nil {
			t.Errorf("%s: Share accepted the nodes", name)
		}
	}
	if _, err := job.Share(job.Nodes()); err != nil {
		t.Fatalf("Share rejected the job's own nodes: %v", err)
	}
}
