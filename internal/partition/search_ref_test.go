package partition_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"offload/internal/callgraph"
	"offload/internal/core"
	"offload/internal/device"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/partition"
	"offload/internal/rng"
	"offload/internal/serverless"
)

// refBruteForce, refGreedy and refAnneal are the searchers as they were
// before they evaluated candidates through a precomputed evaluator, kept
// verbatim as the reference the differential fuzz compares against: every
// candidate goes through the public Objective.
func refBruteForce(g *callgraph.Graph, m partition.CostModel) (partition.Result, error) {
	if err := refPrecheck(g, m); err != nil {
		return partition.Result{}, err
	}
	var free []int // non-pinned component indices
	for i := 0; i < g.Len(); i++ {
		if !g.Component(callgraph.ComponentID(i)).Pinned {
			free = append(free, i)
		}
	}
	if len(free) > partition.BruteForceLimit {
		return partition.Result{}, fmt.Errorf("partition: brute force over %d free components (limit %d)",
			len(free), partition.BruteForceLimit)
	}
	best := partition.AllLocal(g)
	bestObj := partition.Objective(g, m, best)
	evals := 1
	a := partition.AllLocal(g)
	for mask := uint64(1); mask < uint64(1)<<len(free); mask++ {
		for bit, idx := range free {
			a[idx] = mask&(1<<bit) != 0
		}
		if obj := partition.Objective(g, m, a); obj < bestObj {
			bestObj = obj
			best = a.Clone()
		}
		evals++
	}
	return partition.Result{Algorithm: "brute-force", Assignment: best, Objective: bestObj, Evaluations: evals}, nil
}

func refGreedy(g *callgraph.Graph, m partition.CostModel) (partition.Result, error) {
	if err := refPrecheck(g, m); err != nil {
		return partition.Result{}, err
	}
	a := partition.AllLocal(g)
	obj := partition.Objective(g, m, a)
	evals := 1
	for {
		bestIdx, bestObj := -1, obj
		for i := 0; i < g.Len(); i++ {
			if g.Component(callgraph.ComponentID(i)).Pinned {
				continue
			}
			a[i] = !a[i]
			if cand := partition.Objective(g, m, a); cand < bestObj {
				bestObj, bestIdx = cand, i
			}
			a[i] = !a[i]
			evals++
		}
		if bestIdx < 0 {
			return partition.Result{Algorithm: "greedy", Assignment: a, Objective: obj, Evaluations: evals}, nil
		}
		a[bestIdx] = !a[bestIdx]
		obj = bestObj
	}
}

func refAnneal(g *callgraph.Graph, m partition.CostModel, src *rng.Source, cfg partition.AnnealConfig) (partition.Result, error) {
	if err := refPrecheck(g, m); err != nil {
		return partition.Result{}, err
	}
	if cfg.Iterations <= 0 || cfg.StartTemp <= 0 || cfg.Cooling <= 0 || cfg.Cooling >= 1 {
		return partition.Result{}, fmt.Errorf("partition: bad anneal config %+v", cfg)
	}
	seedRes, err := refGreedy(g, m)
	if err != nil {
		return partition.Result{}, err
	}
	var free []int
	for i := 0; i < g.Len(); i++ {
		if !g.Component(callgraph.ComponentID(i)).Pinned {
			free = append(free, i)
		}
	}
	cur := seedRes.Assignment.Clone()
	curObj := seedRes.Objective
	best := cur.Clone()
	bestObj := curObj
	if len(free) == 0 {
		return partition.Result{Algorithm: "anneal", Assignment: best, Objective: bestObj, Evaluations: seedRes.Evaluations}, nil
	}
	// Temperature is relative to the objective scale so one schedule works
	// across workloads of very different magnitudes.
	temp := cfg.StartTemp * math.Max(curObj, 1e-12)
	evals := seedRes.Evaluations
	for it := 0; it < cfg.Iterations; it++ {
		idx := free[src.Intn(len(free))]
		cur[idx] = !cur[idx]
		cand := partition.Objective(g, m, cur)
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
	return partition.Result{Algorithm: "anneal", Assignment: best, Objective: bestObj, Evaluations: evals}, nil
}

func refPrecheck(g *callgraph.Graph, m partition.CostModel) error {
	if err := g.Validate(); err != nil {
		return err
	}
	return m.Validate()
}

// e3Model is E3's environment: smartphone to Lambda-like over WiFi with
// the default weights.
func e3Model() partition.CostModel {
	return core.CostModelFor(device.Smartphone(), serverless.LambdaLike(),
		serverless.LambdaLike().FullShareBytes, network.WiFiCloud(), core.DefaultWeights())
}

// e3Instance is one row of E3 at full scale as fuzz arguments: a template
// (pick < 5) or the random graph drawn from seed with 8–14 components, and
// the anneal seed E3 hands the searcher.
type e3Instance struct {
	pick       uint8
	seed       uint64
	size       uint8
	annealSeed uint64
}

// e3Instances returns E3's 15 full-scale instances: the five templates at
// seed 1 and ten random graphs.
func e3Instances() []e3Instance {
	const seed = 1
	var out []e3Instance
	for i := range callgraph.TemplateNames() {
		out = append(out, e3Instance{pick: uint8(i), annealSeed: seed + 500})
	}
	for i := 0; i < 10; i++ {
		s := seed + uint64(i)*7919
		n := 8 + i%7
		out = append(out, e3Instance{pick: 5, seed: s, size: uint8(n - 2), annealSeed: s + 500})
	}
	return out
}

// FuzzSearchMatchesReference holds BruteForce, Greedy and Anneal to their
// Objective-driven references: equal assignments, bit-equal objectives,
// equal Evaluations and the same rng draws, over the five templates and
// random graphs of 2–18 components, under E3's model or the test model
// with any subset of the weights zeroed, and a remote memory bound that
// can make free components remote-infeasible. Its seed corpus holds E3's
// 15 full-scale instances.
func FuzzSearchMatchesReference(f *testing.F) {
	for _, in := range e3Instances() {
		f.Add(in.pick, in.seed, in.size, in.annealSeed, uint8(0), uint16(0))
	}
	f.Add(uint8(5), uint64(3), uint8(16), uint64(9), uint8(1), uint16(1024))
	f.Add(uint8(5), uint64(4), uint8(10), uint64(2), uint8(1|6<<1), uint16(300))
	f.Add(uint8(2), uint64(0), uint8(0), uint64(5), uint8(1|5<<1), uint16(64))
	f.Add(uint8(5), uint64(8), uint8(0), uint64(1), uint8(1|7<<1), uint16(0))

	templates := callgraph.Templates()
	names := callgraph.TemplateNames()
	f.Fuzz(func(t *testing.T, pick uint8, seed uint64, size uint8, annealSeed uint64, variant uint8, capMB uint16) {
		var g *callgraph.Graph
		if int(pick)%(len(names)+1) < len(names) {
			g = templates[names[int(pick)%(len(names)+1)]]
		} else {
			g = callgraph.Random(rng.New(seed), 2+int(size)%17)
		}
		m := e3Model()
		if variant&1 != 0 {
			m = testCostModel()
		}
		// Bits 1–3 zero the latency, energy and money weights; all three
		// zeroed is an invalid model both sides must reject.
		if variant&2 != 0 {
			m.LatencyWeight = 0
		}
		if variant&4 != 0 {
			m.EnergyWeight = 0
		}
		if variant&8 != 0 {
			m.MoneyWeight = 0
		}
		if capMB != 0 {
			m.MaxRemoteMemory = int64(capMB) * model.MB
		}
		check := func(name string, got, want partition.Result, gotErr, wantErr error) {
			t.Helper()
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s: error %v, reference error %v", name, gotErr, wantErr)
			}
			if gotErr != nil {
				return
			}
			if got.Algorithm != want.Algorithm || got.Evaluations != want.Evaluations ||
				math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
				t.Fatalf("%s: got %s obj %v (%d evals), reference %s obj %v (%d evals)", name,
					got.Algorithm, got.Objective, got.Evaluations, want.Algorithm, want.Objective, want.Evaluations)
			}
			if !slices.Equal(got.Assignment, want.Assignment) {
				t.Fatalf("%s: assignment %v, reference %v", name, got.Assignment, want.Assignment)
			}
		}
		got, gotErr := partition.BruteForce(g, m)
		want, wantErr := refBruteForce(g, m)
		check("brute-force", got, want, gotErr, wantErr)
		got, gotErr = partition.Greedy(g, m)
		want, wantErr = refGreedy(g, m)
		check("greedy", got, want, gotErr, wantErr)
		src, refSrc := rng.New(annealSeed), rng.New(annealSeed)
		got, gotErr = partition.Anneal(g, m, src, partition.DefaultAnneal())
		want, wantErr = refAnneal(g, m, refSrc, partition.DefaultAnneal())
		check("anneal", got, want, gotErr, wantErr)
		if src.Uint64() != refSrc.Uint64() {
			t.Fatal("anneal: rng stream diverged from the reference's")
		}
	})
}

// testCostModel is the package tests' latency+energy+money model.
func testCostModel() partition.CostModel {
	return partition.CostModel{
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
