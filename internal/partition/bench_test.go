package partition

import (
	"testing"

	"offload/internal/callgraph"
	"offload/internal/rng"
)

// objective keeps the benchmarked result live so the call is not removed.
var objective float64

// BenchmarkObjective measures one evaluation of the partition objective on
// a template graph, the inner step of every search algorithm.
func BenchmarkObjective(b *testing.B) {
	g := callgraph.VideoTranscode()
	m := testModel()
	a := AllRemote(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objective = Objective(g, m, a)
	}
}

// result keeps the benchmarked search result live.
var result Result

// benchGraph is an E3-sized instance: a random 14-component graph.
func benchGraph() *callgraph.Graph { return callgraph.Random(rng.New(1), 14) }

// BenchmarkBruteForce enumerates the 2^13 assignments of the free
// components of an E3-sized graph.
func BenchmarkBruteForce(b *testing.B) {
	g, m := benchGraph(), testModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := BruteForce(g, m)
		if err != nil {
			b.Fatal(err)
		}
		result = r
	}
}

// BenchmarkGreedy hill-climbs from all-local on an E3-sized graph.
func BenchmarkGreedy(b *testing.B) {
	g, m := benchGraph(), testModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Greedy(g, m)
		if err != nil {
			b.Fatal(err)
		}
		result = r
	}
}

// BenchmarkAnneal runs the DefaultAnneal schedule on an E3-sized graph.
func BenchmarkAnneal(b *testing.B) {
	g, m := benchGraph(), testModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Anneal(g, m, rng.New(501), DefaultAnneal())
		if err != nil {
			b.Fatal(err)
		}
		result = r
	}
}
