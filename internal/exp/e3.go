package exp

import (
	"fmt"

	"offload/internal/callgraph"
	"offload/internal/core"
	"offload/internal/device"
	"offload/internal/metrics"
	"offload/internal/network"
	"offload/internal/partition"
	"offload/internal/serverless"
)

// e3Model is the environment the partitions are evaluated in: smartphone
// to Lambda-like over WiFi, with the default latency/energy/money weights.
func e3Model() partition.CostModel {
	return core.CostModelFor(device.Smartphone(), serverless.LambdaLike(),
		serverless.LambdaLike().FullShareBytes, network.WiFiCloud(), core.DefaultWeights())
}

// E3Partition reproduces the partitioner comparison (Table 1): objective
// value and work done by each algorithm on the five templates and a set of
// random DAGs small enough to brute-force.
//
// Expected shape: min-cut matches the brute-force optimum everywhere;
// greedy lands within a few percent; annealing closes most of greedy's
// remaining gap; all informed algorithms beat all-local and all-remote.
func E3Partition(s Scale) ([]*metrics.Table, error) {
	m := e3Model()
	tbl := metrics.NewTable(
		"E3 (Tab 1): partition objective by algorithm (lower is better)",
		"graph", "n", "all_local", "all_remote", "greedy", "anneal", "min_cut", "optimal", "mincut_gap").
		Kinds(metrics.Auto, metrics.Auto, metrics.Auto, metrics.Auto, metrics.Auto, metrics.Auto, metrics.Auto, metrics.Auto, metrics.Percent)

	run := func(name string, g *callgraph.Graph, seed uint64) error {
		bf, err := partition.BruteForce(g, m)
		if err != nil {
			return err
		}
		mc, err := partition.MinCut(g, m)
		if err != nil {
			return err
		}
		gr, err := partition.Greedy(g, m)
		if err != nil {
			return err
		}
		an, err := partition.Anneal(g, m, newSeedSource(seed+500), partition.DefaultAnneal())
		if err != nil {
			return err
		}
		gap := 0.0
		if bf.Objective > 0 {
			gap = mc.Objective/bf.Objective - 1
		}
		tbl.Add(name, g.Len(),
			partition.Objective(g, m, partition.AllLocal(g)),
			partition.Objective(g, m, partition.AllRemote(g)),
			gr.Objective, an.Objective, mc.Objective, bf.Objective, gap)
		return nil
	}

	templates := callgraph.Templates()
	for _, name := range callgraph.TemplateNames() {
		if err := run(name, templates[name], s.Seed); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.RandomSeeds; i++ {
		seed := s.Seed + uint64(i)*7919
		n := 8 + i%7 // 8..14 components
		g := callgraph.Random(newSeedSource(seed), n)
		if err := run(fmt.Sprintf("random-%02d", i), g, seed); err != nil {
			return nil, err
		}
	}
	return []*metrics.Table{tbl}, nil
}
