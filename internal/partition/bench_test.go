package partition

import (
	"testing"

	"offload/internal/callgraph"
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
