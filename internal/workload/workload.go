// Package workload generates the task streams the evaluation runs on:
// stochastic arrival processes (Poisson, bursty MMPP) and task
// populations derived from the callgraph application templates, with
// lognormal size variation and per-application soft deadlines in the
// minutes-to-hours range that defines "non-time-critical".
package workload

import (
	"fmt"

	"offload/internal/callgraph"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sim"
)

// Arrivals produces inter-arrival gaps. Implementations may depend on the
// current virtual time.
type Arrivals interface {
	// Next returns the gap between the arrival at now and the next one.
	Next(now sim.Time) sim.Duration
}

// Poisson is a homogeneous Poisson process.
type Poisson struct {
	src  *rng.Source
	rate float64
}

var _ Arrivals = (*Poisson)(nil)

// NewPoisson returns a Poisson process with the given rate per second.
// It panics if rate <= 0.
func NewPoisson(src *rng.Source, rate float64) *Poisson {
	if rate <= 0 {
		panic(fmt.Sprintf("workload: Poisson rate %g not positive", rate))
	}
	return &Poisson{src: src, rate: rate}
}

// Next implements Arrivals.
func (p *Poisson) Next(sim.Time) sim.Duration {
	return sim.Duration(p.src.Exp(p.rate))
}

// MMPP is a two-state Markov-modulated Poisson process: a calm state and a
// burst state with different rates, switching with exponential sojourns.
type MMPP struct {
	src                 *rng.Source
	calmRate, burstRate float64
	toBurst, toCalm     float64 // state-switch rates per second
	burst               bool
	stateLeft           sim.Duration // remaining sojourn in current state
}

var _ Arrivals = (*MMPP)(nil)

// NewMMPP returns an MMPP starting in the calm state. All rates must be
// positive.
func NewMMPP(src *rng.Source, calmRate, burstRate, toBurst, toCalm float64) *MMPP {
	if calmRate <= 0 || burstRate <= 0 || toBurst <= 0 || toCalm <= 0 {
		panic(fmt.Sprintf("workload: MMPP rates must be positive (%g %g %g %g)",
			calmRate, burstRate, toBurst, toCalm))
	}
	m := &MMPP{src: src, calmRate: calmRate, burstRate: burstRate, toBurst: toBurst, toCalm: toCalm}
	m.stateLeft = sim.Duration(src.Exp(toBurst))
	return m
}

// Next implements Arrivals by racing the next arrival against state
// switches.
func (m *MMPP) Next(sim.Time) sim.Duration {
	total := sim.Duration(0)
	for {
		rate := m.calmRate
		if m.burst {
			rate = m.burstRate
		}
		gap := sim.Duration(m.src.Exp(rate))
		if gap <= m.stateLeft {
			m.stateLeft -= gap
			return total + gap
		}
		// State switches before the arrival would have happened.
		total += m.stateLeft
		m.burst = !m.burst
		switchRate := m.toCalm
		if !m.burst {
			switchRate = m.toBurst
		}
		m.stateLeft = sim.Duration(m.src.Exp(switchRate))
	}
}

// Fixed replays constant gaps — useful in tests and closed-form checks.
type Fixed struct{ Gap sim.Duration }

var _ Arrivals = (*Fixed)(nil)

// Next implements Arrivals.
func (f *Fixed) Next(sim.Time) sim.Duration { return f.Gap }

// TaskTemplate describes a population of tasks derived from one
// application.
type TaskTemplate struct {
	App              string
	MeanCycles       float64      // offloadable demand per run
	CyclesSigma      float64      // lognormal dispersion of task sizes
	InputBytes       int64        // device→remote payload per run
	OutputBytes      int64        // remote→device payload per run
	MemoryBytes      int64        // peak working set of offloaded work
	ParallelFraction float64      // demand-weighted parallel share
	Deadline         sim.Duration // soft deadline; 0 = none
}

// Validate reports whether the template is usable.
func (t TaskTemplate) Validate() error {
	switch {
	case t.App == "":
		return fmt.Errorf("workload: template without app name")
	case t.MeanCycles <= 0:
		return fmt.Errorf("workload: %s: demand must be positive", t.App)
	case t.CyclesSigma < 0:
		return fmt.Errorf("workload: %s: negative dispersion", t.App)
	case t.InputBytes < 0 || t.OutputBytes < 0 || t.MemoryBytes < 0:
		return fmt.Errorf("workload: %s: negative sizes", t.App)
	case t.ParallelFraction < 0 || t.ParallelFraction > 1:
		return fmt.Errorf("workload: %s: parallel fraction outside [0,1]", t.App)
	case t.Deadline < 0:
		return fmt.Errorf("workload: %s: negative deadline", t.App)
	}
	return nil
}

// defaultDeadlines are the per-application soft deadlines: generous,
// minutes-to-hours budgets, as the non-time-critical framing demands.
var defaultDeadlines = map[string]sim.Duration{
	"video-transcode": 30 * 60,
	"ml-batch":        8 * 3600,
	"photo-pipeline":  10 * 60,
	"report-gen":      15 * 60,
	"sci-batch":       12 * 3600,
}

// FromGraph derives a task template from an application call graph: the
// offloadable demand is everything not pinned, the payloads are the edges
// crossing the pinned boundary, and the working set is the largest
// offloadable component's.
func FromGraph(g *callgraph.Graph) (TaskTemplate, error) {
	if err := g.Validate(); err != nil {
		return TaskTemplate{}, err
	}
	t := TaskTemplate{App: g.Name(), CyclesSigma: 0.25}
	var weighted float64
	for id := 0; id < g.Len(); id++ {
		c := g.Component(callgraph.ComponentID(id))
		if c.Pinned {
			continue
		}
		cycles := c.Cycles * c.CallsPerRun
		t.MeanCycles += cycles
		weighted += cycles * c.ParallelFraction
		if c.MemoryBytes > t.MemoryBytes {
			t.MemoryBytes = c.MemoryBytes
		}
	}
	if t.MeanCycles == 0 {
		return TaskTemplate{}, fmt.Errorf("workload: %s has no offloadable work", g.Name())
	}
	t.ParallelFraction = weighted / t.MeanCycles
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		fromPinned := g.Component(e.From).Pinned
		toPinned := g.Component(e.To).Pinned
		bytes := int64(float64(e.Bytes) * e.CallsPerRun)
		switch {
		case fromPinned && !toPinned:
			t.InputBytes += bytes
		case !fromPinned && toPinned:
			t.OutputBytes += bytes
		}
	}
	if d, ok := defaultDeadlines[g.Name()]; ok {
		t.Deadline = d
	} else {
		t.Deadline = 3600
	}
	return t, t.Validate()
}

// Generator draws tasks from a weighted mix of templates.
type Generator struct {
	src       *rng.Source
	templates []TaskTemplate
	cum       []float64 // cumulative weights
	baseID    model.TaskID
	nextID    model.TaskID // count of tasks drawn; IDs are baseID+1..baseID+nextID
}

// WeightedTemplate pairs a template with its share of the mix.
type WeightedTemplate struct {
	Template TaskTemplate
	Weight   float64
}

// NewGenerator returns a generator over the mix. Weights must be positive.
func NewGenerator(src *rng.Source, mix []WeightedTemplate) (*Generator, error) {
	if len(mix) == 0 {
		return nil, fmt.Errorf("workload: empty template mix")
	}
	g := &Generator{
		src:       src,
		templates: make([]TaskTemplate, 0, len(mix)),
		cum:       make([]float64, 0, len(mix)),
	}
	total := 0.0
	for _, wt := range mix {
		if err := wt.Template.Validate(); err != nil {
			return nil, err
		}
		if wt.Weight <= 0 {
			return nil, fmt.Errorf("workload: non-positive weight for %s", wt.Template.App)
		}
		total += wt.Weight
		g.templates = append(g.templates, wt.Template)
		g.cum = append(g.cum, total)
	}
	for i := range g.cum {
		g.cum[i] /= total
	}
	return g, nil
}

// Mix returns the equal-weight mix over the named application templates,
// in the order given. It builds the template graphs once per call.
func Mix(names ...string) ([]WeightedTemplate, error) {
	graphs := callgraph.Templates()
	mix := make([]WeightedTemplate, 0, len(names))
	for _, name := range names {
		g, ok := graphs[name]
		if !ok {
			return nil, fmt.Errorf("workload: unknown template %q (have %v)", name, callgraph.TemplateNames())
		}
		t, err := FromGraph(g)
		if err != nil {
			return nil, err
		}
		mix = append(mix, WeightedTemplate{Template: t, Weight: 1})
	}
	return mix, nil
}

// StandardMix returns a generator over all five application templates with
// equal weights.
func StandardMix(src *rng.Source) (*Generator, error) {
	mix, err := Mix(callgraph.TemplateNames()...)
	if err != nil {
		return nil, err
	}
	return NewGenerator(src, mix)
}

// Clone returns a generator over the same template mix drawing from its
// own random stream, with task IDs offset by base. Sharded fleets give
// every UE its own clone: per-UE streams keep draws independent of the
// UE→shard partition, and a disjoint base per UE (e.g. UE index shifted
// past any per-UE task count) keeps IDs globally unique and
// shard-count-invariant. The templates and weights are shared read-only.
func (g *Generator) Clone(src *rng.Source, base model.TaskID) *Generator {
	return &Generator{src: src, templates: g.templates, cum: g.cum, baseID: base}
}

// Next draws one task submitted at now.
func (g *Generator) Next(now sim.Time) *model.Task { return g.NextFrom(nil, now) }

// NextFrom is Next with the task taken from tasks (a nil pool allocates
// it).
func (g *Generator) NextFrom(tasks *model.TaskPool, now sim.Time) *model.Task {
	u := g.src.Float64()
	idx := 0
	for idx < len(g.cum)-1 && g.cum[idx] < u {
		idx++
	}
	t := g.templates[idx]
	g.nextID++
	scale := 1.0
	if t.CyclesSigma > 0 {
		// Unit-mean lognormal size factor.
		scale = g.src.LogNormal(-t.CyclesSigma*t.CyclesSigma/2, t.CyclesSigma)
	}
	return tasks.New(model.Task{
		ID:               g.baseID + g.nextID,
		App:              t.App,
		InputBytes:       int64(float64(t.InputBytes) * scale),
		OutputBytes:      int64(float64(t.OutputBytes) * scale),
		Cycles:           t.MeanCycles * scale,
		MemoryBytes:      t.MemoryBytes,
		ParallelFraction: t.ParallelFraction,
		Deadline:         t.Deadline,
		Submitted:        now,
	})
}

// Generated returns how many tasks have been drawn.
func (g *Generator) Generated() uint64 { return uint64(g.nextID) }

// Stream schedules count arrivals on eng, drawing gaps from arrivals and
// tasks from gen, invoking submit for each. Submission happens inside the
// simulation, so substrates see realistic arrival dynamics. Each task is
// allocated; StreamFrom draws them from the engine's pool instead.
func Stream(eng *sim.Engine, arrivals Arrivals, gen *Generator, count int, submit func(*model.Task)) {
	StreamFrom(eng, nil, arrivals, gen, count, submit)
}

// StreamFrom is Stream with every task drawn from tasks, the pool of
// eng's tasks that the scheduler releases them back to once they settle.
func StreamFrom(eng *sim.Engine, tasks *model.TaskPool, arrivals Arrivals, gen *Generator, count int, submit func(*model.Task)) {
	if count <= 0 {
		return
	}
	var arrive func()
	remaining := count
	arrive = func() {
		task := gen.NextFrom(tasks, eng.Now())
		remaining--
		submit(task)
		if remaining > 0 {
			eng.After(arrivals.Next(eng.Now()), arrive)
		}
	}
	eng.After(arrivals.Next(eng.Now()), arrive)
}
