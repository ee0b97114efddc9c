package workload

import (
	"math"
	"testing"
	"testing/quick"

	"offload/internal/callgraph"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sim"
)

func TestPoissonMeanGap(t *testing.T) {
	p := NewPoisson(rng.New(1), 4) // 4/s → mean gap 0.25
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(p.Next(0))
	}
	if mean := sum / n; math.Abs(mean-0.25) > 0.005 {
		t.Fatalf("mean gap = %g, want ~0.25", mean)
	}
}

func TestPoissonValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate accepted")
		}
	}()
	NewPoisson(rng.New(1), 0)
}

func TestMMPPRateBetweenStates(t *testing.T) {
	// Calm 1/s, burst 50/s, equal sojourn rates → long-run mean rate ~25.5/s.
	m := NewMMPP(rng.New(2), 1, 50, 0.1, 0.1)
	count := 0
	elapsed := sim.Duration(0)
	for elapsed < 20000 {
		elapsed += m.Next(0)
		count++
	}
	rate := float64(count) / float64(elapsed)
	if rate < 10 || rate > 40 {
		t.Fatalf("MMPP long-run rate = %g, want between states (1, 50)", rate)
	}
	// It must actually exceed the calm rate substantially, proving bursts fire.
	if rate < 5 {
		t.Fatalf("MMPP never burst: rate %g", rate)
	}
}

func TestMMPPGapsPositive(t *testing.T) {
	m := NewMMPP(rng.New(3), 2, 20, 0.5, 0.5)
	for i := 0; i < 10000; i++ {
		if g := m.Next(0); g <= 0 {
			t.Fatalf("non-positive gap %v", g)
		}
	}
}

func TestFixedArrivals(t *testing.T) {
	f := &Fixed{Gap: 2.5}
	for i := 0; i < 5; i++ {
		if f.Next(0) != 2.5 {
			t.Fatal("Fixed gap changed")
		}
	}
}

func TestFromGraphDerivesOffloadableDemand(t *testing.T) {
	g := callgraph.SciBatch()
	tmpl, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	// Everything except the pinned instrument: clean+simulate+analyze+visualize.
	want := 2e9 + 2e11 + 1e10 + 2e9
	if math.Abs(tmpl.MeanCycles-want)/want > 1e-12 {
		t.Fatalf("MeanCycles = %g, want %g", tmpl.MeanCycles, want)
	}
	// Input: instrument→clean (32 MB); output: visualize→instrument (2 MB).
	if tmpl.InputBytes != 32*model.MB {
		t.Fatalf("InputBytes = %d", tmpl.InputBytes)
	}
	if tmpl.OutputBytes != 2*model.MB {
		t.Fatalf("OutputBytes = %d", tmpl.OutputBytes)
	}
	if tmpl.MemoryBytes != 3072*model.MB {
		t.Fatalf("MemoryBytes = %d", tmpl.MemoryBytes)
	}
	if tmpl.Deadline != 12*3600 {
		t.Fatalf("Deadline = %v", tmpl.Deadline)
	}
	if tmpl.ParallelFraction <= 0.8 || tmpl.ParallelFraction >= 1 {
		t.Fatalf("ParallelFraction = %g, want demand-weighted ~0.93", tmpl.ParallelFraction)
	}
}

func TestFromGraphAllTemplates(t *testing.T) {
	for name, g := range callgraph.Templates() {
		tmpl, err := FromGraph(g)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if tmpl.Deadline < 600 {
			t.Errorf("%s: deadline %v below the non-time-critical range", name, tmpl.Deadline)
		}
	}
}

func TestFromGraphRejectsAllPinned(t *testing.T) {
	g := callgraph.New("pinned-only")
	g.MustAddComponent(callgraph.Component{Name: "ui", Cycles: 1, Pinned: true})
	if _, err := FromGraph(g); err == nil {
		t.Fatal("all-pinned graph accepted")
	}
}

func TestGeneratorMixProportions(t *testing.T) {
	a := TaskTemplate{App: "a", MeanCycles: 1e9, Deadline: 60}
	b := TaskTemplate{App: "b", MeanCycles: 1e9, Deadline: 60}
	gen, err := NewGenerator(rng.New(5), []WeightedTemplate{
		{Template: a, Weight: 3},
		{Template: b, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[gen.Next(0).App]++
	}
	frac := float64(counts["a"]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("template a fraction = %g, want ~0.75", frac)
	}
	if gen.Generated() != n {
		t.Fatalf("Generated = %d", gen.Generated())
	}
}

// TestGeneratorClone: a clone shares the mix but draws from its own
// stream with IDs offset by its base — same-seeded clones with different
// bases produce identical tasks except for the disjoint ID ranges.
func TestGeneratorClone(t *testing.T) {
	gen, err := StandardMix(rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	const base = model.TaskID(1) << 32
	c1 := gen.Clone(rng.New(99), 0)
	c2 := gen.Clone(rng.New(99), base)
	for i := 0; i < 50; i++ {
		a, b := c1.Next(0), c2.Next(0)
		if b.ID != a.ID+base {
			t.Fatalf("draw %d: IDs %d and %d not offset by base", i, a.ID, b.ID)
		}
		if a.App != b.App || a.Cycles != b.Cycles || a.InputBytes != b.InputBytes {
			t.Fatalf("draw %d: same-seeded clones diverged: %+v vs %+v", i, a, b)
		}
	}
	if c1.Generated() != 50 || c2.Generated() != 50 {
		t.Fatalf("Generated = %d/%d, want 50/50", c1.Generated(), c2.Generated())
	}
	// The parent's stream must be untouched by clone draws.
	if gen.Generated() != 0 {
		t.Fatalf("parent Generated = %d after clone draws, want 0", gen.Generated())
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(rng.New(1), nil); err == nil {
		t.Fatal("empty mix accepted")
	}
	bad := TaskTemplate{App: "x"} // zero cycles
	if _, err := NewGenerator(rng.New(1), []WeightedTemplate{{Template: bad, Weight: 1}}); err == nil {
		t.Fatal("invalid template accepted")
	}
	ok := TaskTemplate{App: "x", MeanCycles: 1}
	if _, err := NewGenerator(rng.New(1), []WeightedTemplate{{Template: ok, Weight: 0}}); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestGeneratedTasksValid(t *testing.T) {
	gen, err := StandardMix(rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	f := func(step uint8) bool {
		task := gen.Next(sim.Time(step))
		if err := task.Validate(); err != nil {
			return false
		}
		return task.Cycles > 0 && task.ID > 0 && task.Deadline > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTaskSizeVariationIsUnbiased(t *testing.T) {
	tmpl := TaskTemplate{App: "x", MeanCycles: 1e9, CyclesSigma: 0.5}
	gen, err := NewGenerator(rng.New(7), []WeightedTemplate{{Template: tmpl, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += gen.Next(0).Cycles
	}
	mean := sum / n
	if math.Abs(mean-1e9)/1e9 > 0.02 {
		t.Fatalf("mean task size = %g, want ~1e9 (unbiased)", mean)
	}
}

func TestTaskIDsUnique(t *testing.T) {
	gen, err := StandardMix(rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[model.TaskID]bool{}
	for i := 0; i < 1000; i++ {
		id := gen.Next(0).ID
		if seen[id] {
			t.Fatalf("duplicate task ID %d", id)
		}
		seen[id] = true
	}
}

func TestStreamSubmitsExactlyCountTasks(t *testing.T) {
	eng := sim.NewEngine()
	gen, err := StandardMix(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	var submitted []*model.Task
	Stream(eng, &Fixed{Gap: 1}, gen, 10, func(task *model.Task) {
		submitted = append(submitted, task)
	})
	eng.Run()
	if len(submitted) != 10 {
		t.Fatalf("submitted %d tasks, want 10", len(submitted))
	}
	for i, task := range submitted {
		if task.Submitted != sim.Time(i+1) {
			t.Fatalf("task %d submitted at %v, want %d", i, task.Submitted, i+1)
		}
	}
}

func TestStreamZeroCountIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	gen, _ := StandardMix(rng.New(10))
	Stream(eng, &Fixed{Gap: 1}, gen, 0, func(*model.Task) { t.Fatal("submitted") })
	eng.Run()
}

func TestMixUnknownTemplate(t *testing.T) {
	if _, err := Mix("report-gen", "no-such-app"); err == nil {
		t.Fatal("unknown template accepted")
	}
	mix, err := Mix("report-gen")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 1 || mix[0].Template.App != "report-gen" || mix[0].Weight != 1 {
		t.Fatalf("mix = %+v", mix)
	}
}

func TestMixCoversStandardTemplates(t *testing.T) {
	names := callgraph.TemplateNames()
	mix, err := Mix(names...)
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != len(names) {
		t.Fatalf("standard mix has %d templates, want %d", len(mix), len(names))
	}
	for i, wt := range mix {
		if wt.Template.App != names[i] || wt.Weight != 1 {
			t.Errorf("mix[%d] = %s weight %g, want %s weight 1", i, wt.Template.App, wt.Weight, names[i])
		}
	}
}
