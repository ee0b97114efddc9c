package partition

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"offload/internal/callgraph"
	"offload/internal/rng"
)

// testModel is a latency+energy+money model with a 2 GHz device, a 3 GHz
// remote, 10 Mbps and 50 ms RTT.
func testModel() CostModel {
	return CostModel{
		LocalHz:            2e9,
		RemoteHz:           3e9,
		BandwidthBps:       10e6,
		RTTSeconds:         0.05,
		USDPerRemoteSecond: 2e-5,
		EnergyJPerCycle:    1e-9,
		RadioJPerByte:      1e-7,
		LatencyWeight:      1,
		EnergyWeight:       0.5,
		MoneyWeight:        100,
	}
}

func TestCostModelValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*CostModel)
		ok     bool
	}{
		{"valid", func(m *CostModel) {}, true},
		{"zero local", func(m *CostModel) { m.LocalHz = 0 }, false},
		{"zero remote", func(m *CostModel) { m.RemoteHz = 0 }, false},
		{"zero bandwidth", func(m *CostModel) { m.BandwidthBps = 0 }, false},
		{"negative rtt", func(m *CostModel) { m.RTTSeconds = -1 }, false},
		{"negative price", func(m *CostModel) { m.USDPerRemoteSecond = -1 }, false},
		{"negative weight", func(m *CostModel) { m.LatencyWeight = -1 }, false},
		{"all weights zero", func(m *CostModel) {
			m.LatencyWeight, m.EnergyWeight, m.MoneyWeight = 0, 0, 0
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := testModel()
			tt.mutate(&m)
			if got := m.Validate() == nil; got != tt.ok {
				t.Fatalf("Validate ok = %v, want %v", got, tt.ok)
			}
		})
	}
}

func TestObjectiveInvalidAssignments(t *testing.T) {
	g := callgraph.VideoTranscode()
	m := testModel()
	if got := Objective(g, m, make(Assignment, 2)); !math.IsInf(got, 1) {
		t.Fatal("wrong arity did not evaluate to +Inf")
	}
	a := AllLocal(g)
	a[0] = true // component 0 is the pinned UI
	if got := Objective(g, m, a); !math.IsInf(got, 1) {
		t.Fatal("offloaded pinned component did not evaluate to +Inf")
	}
}

func TestObjectiveAllLocalIsSumOfLocalCosts(t *testing.T) {
	g := callgraph.ReportGen()
	m := testModel()
	want := 0.0
	for _, c := range g.Components() {
		want += m.LocalCost(c)
	}
	if got := Objective(g, m, AllLocal(g)); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Objective(all-local) = %g, want %g", got, want)
	}
}

func TestMinCutMatchesBruteForceOnTemplates(t *testing.T) {
	m := testModel()
	for name, g := range callgraph.Templates() {
		t.Run(name, func(t *testing.T) {
			bf, err := BruteForce(g, m)
			if err != nil {
				t.Fatal(err)
			}
			mc, err := MinCut(g, m)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(mc.Objective-bf.Objective) > 1e-6*math.Max(1, bf.Objective) {
				t.Fatalf("min-cut %g != brute force %g", mc.Objective, bf.Objective)
			}
		})
	}
}

func TestMinCutMatchesBruteForceOnRandomGraphs(t *testing.T) {
	m := testModel()
	f := func(seed uint64, size uint8) bool {
		n := 3 + int(size)%10 // 3..12 components
		g := callgraph.Random(rng.New(seed), n)
		bf, err := BruteForce(g, m)
		if err != nil {
			return false
		}
		mc, err := MinCut(g, m)
		if err != nil {
			return false
		}
		if !mc.Assignment.Valid(g) {
			return false
		}
		return math.Abs(mc.Objective-bf.Objective) <= 1e-6*math.Max(1, bf.Objective)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMinCutNeverWorseThanTrivialAssignments(t *testing.T) {
	m := testModel()
	f := func(seed uint64, size uint8) bool {
		n := 3 + int(size)%30
		g := callgraph.Random(rng.New(seed), n)
		mc, err := MinCut(g, m)
		if err != nil {
			return false
		}
		local := Objective(g, m, AllLocal(g))
		remote := Objective(g, m, AllRemote(g))
		return mc.Objective <= local+1e-9 && mc.Objective <= remote+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedStaysLocalInAllAlgorithms(t *testing.T) {
	m := testModel()
	g := callgraph.Random(rng.New(5), 12)
	results := map[string]Result{}
	bf, err := BruteForce(g, m)
	if err != nil {
		t.Fatal(err)
	}
	results["bf"] = bf
	mc, err := MinCut(g, m)
	if err != nil {
		t.Fatal(err)
	}
	results["mc"] = mc
	gr, err := Greedy(g, m)
	if err != nil {
		t.Fatal(err)
	}
	results["greedy"] = gr
	an, err := Anneal(g, m, rng.New(1), DefaultAnneal())
	if err != nil {
		t.Fatal(err)
	}
	results["anneal"] = an
	for name, r := range results {
		if !r.Assignment.Valid(g) {
			t.Errorf("%s produced invalid assignment", name)
		}
		if r.Assignment[0] {
			t.Errorf("%s offloaded the pinned root", name)
		}
	}
}

func TestGreedyNeverWorseThanAllLocal(t *testing.T) {
	m := testModel()
	f := func(seed uint64) bool {
		g := callgraph.Random(rng.New(seed), 15)
		r, err := Greedy(g, m)
		if err != nil {
			return false
		}
		return r.Objective <= Objective(g, m, AllLocal(g))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealNeverWorseThanGreedy(t *testing.T) {
	m := testModel()
	for seed := uint64(0); seed < 10; seed++ {
		g := callgraph.Random(rng.New(seed), 15)
		gr, err := Greedy(g, m)
		if err != nil {
			t.Fatal(err)
		}
		an, err := Anneal(g, m, rng.New(seed+100), AnnealConfig{Iterations: 5000, StartTemp: 0.5, Cooling: 0.999})
		if err != nil {
			t.Fatal(err)
		}
		if an.Objective > gr.Objective+1e-9 {
			t.Fatalf("seed %d: anneal %g worse than its greedy seed %g", seed, an.Objective, gr.Objective)
		}
	}
}

func TestBruteForceRejectsLargeGraphs(t *testing.T) {
	g := callgraph.Random(rng.New(1), BruteForceLimit+3)
	if _, err := BruteForce(g, testModel()); err == nil {
		t.Fatal("brute force accepted an oversized graph")
	}
}

func TestHeavyComputeOffloadsCheapDataStays(t *testing.T) {
	// A graph with one enormous compute component behind a tiny edge must
	// offload it; a component with huge data behind tiny compute must not.
	g := callgraph.New("synthetic")
	g.MustAddComponent(callgraph.Component{Name: "ui", Cycles: 1e6, Pinned: true})
	g.MustAddComponent(callgraph.Component{Name: "cruncher", Cycles: 1e12})
	g.MustAddComponent(callgraph.Component{Name: "streamer", Cycles: 1e6})
	g.MustAddEdge(callgraph.Edge{From: 0, To: 1, Bytes: 1024})
	g.MustAddEdge(callgraph.Edge{From: 0, To: 2, Bytes: 1 << 32}) // 4 GB
	m := testModel()
	r, err := MinCut(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Assignment[1] {
		t.Error("compute-heavy component not offloaded")
	}
	if r.Assignment[2] {
		t.Error("data-heavy component offloaded")
	}
}

func TestRemoteNames(t *testing.T) {
	g := callgraph.SciBatch()
	r, err := MinCut(g, testModel())
	if err != nil {
		t.Fatal(err)
	}
	names := r.Remote(g)
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "simulate") {
		t.Errorf("sci-batch min-cut did not offload the simulate stage: %v", names)
	}
	for _, n := range names {
		if n == "instrument" {
			t.Error("pinned instrument listed as remote")
		}
	}
}

func TestAnnealConfigValidation(t *testing.T) {
	g := callgraph.ReportGen()
	bad := []AnnealConfig{
		{Iterations: 0, StartTemp: 1, Cooling: 0.99},
		{Iterations: 10, StartTemp: 0, Cooling: 0.99},
		{Iterations: 10, StartTemp: 1, Cooling: 1.5},
		{Iterations: 10, StartTemp: 1, Cooling: 1},
	}
	for _, cfg := range bad {
		if _, err := Anneal(g, testModel(), rng.New(1), cfg); err == nil {
			t.Errorf("Anneal accepted bad config %+v", cfg)
		}
	}
}

func TestMinCutDeterministic(t *testing.T) {
	g := callgraph.Random(rng.New(77), 20)
	m := testModel()
	a, err := MinCut(g, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinCut(g, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("MinCut not deterministic")
		}
	}
}

func TestMemoryBoundPinsOversizedComponents(t *testing.T) {
	g := callgraph.New("big-mem")
	g.MustAddComponent(callgraph.Component{Name: "ui", Cycles: 1e6, Pinned: true})
	// Enormous compute that would certainly offload — but a 64 GB working
	// set no function instance can hold.
	g.MustAddComponent(callgraph.Component{Name: "whale", Cycles: 1e13, MemoryBytes: 64 << 30})
	g.MustAddComponent(callgraph.Component{Name: "minnow", Cycles: 1e12, MemoryBytes: 1 << 30})
	g.MustAddEdge(callgraph.Edge{From: 0, To: 1, Bytes: 1024})
	g.MustAddEdge(callgraph.Edge{From: 1, To: 2, Bytes: 1024})

	m := testModel()
	m.MaxRemoteMemory = 10 << 30 // 10 GB cap

	r, err := MinCut(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Assignment[1] {
		t.Error("oversized component offloaded past the memory bound")
	}
	if !r.Assignment[2] {
		t.Error("feasible heavy component not offloaded")
	}
	// The objective must agree: putting the whale remote is infeasible.
	forced := r.Assignment.Clone()
	forced[1] = true
	if !math.IsInf(Objective(g, m, forced), 1) {
		t.Error("Objective accepted an infeasible remote placement")
	}
	// Brute force agrees with min-cut under the bound.
	bf, err := BruteForce(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bf.Objective-r.Objective) > 1e-9*math.Max(1, bf.Objective) {
		t.Fatalf("min-cut %g != brute force %g under memory bound", r.Objective, bf.Objective)
	}
}

func TestMoneyWeightPullsWorkBackLocal(t *testing.T) {
	// With an extreme money weight, offloading should shrink or vanish.
	g := callgraph.SciBatch()
	cheap := testModel()
	expensive := testModel()
	expensive.MoneyWeight = 1e9
	rc, err := MinCut(g, cheap)
	if err != nil {
		t.Fatal(err)
	}
	re, err := MinCut(g, expensive)
	if err != nil {
		t.Fatal(err)
	}
	if re.Assignment.RemoteCount() > rc.Assignment.RemoteCount() {
		t.Fatalf("raising money weight increased offloading: %d > %d",
			re.Assignment.RemoteCount(), rc.Assignment.RemoteCount())
	}
	if re.Assignment.RemoteCount() != 0 {
		t.Fatalf("extreme money weight still offloads %d components", re.Assignment.RemoteCount())
	}
}

// TestObjectiveAllocatesNothing holds the objective, which the searchers
// call once per candidate, to zero allocations: it reads the edges in
// place rather than copying the edge list.
func TestObjectiveAllocatesNothing(t *testing.T) {
	m := testModel()
	for name, g := range callgraph.Templates() {
		a := AllRemote(g)
		if allocs := testing.AllocsPerRun(100, func() { Objective(g, m, a) }); allocs != 0 {
			t.Errorf("%s: Objective allocates %v times per call", name, allocs)
		}
	}
}
