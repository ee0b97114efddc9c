package workload_test

import (
	"testing"

	"offload/internal/dag"
	"offload/internal/rng"
	"offload/internal/workload"
)

// dagShapes are E22's three job populations.
var dagShapes = []struct {
	name string
	tmpl workload.JobTemplate
}{
	{"narrow", dagTemplate(workload.ShapePipeline, 8, 0)},
	{"wide", dagTemplate(workload.ShapeForkJoin, 16, 0)},
	{"deep", dagTemplate(workload.ShapeLayered, 12, 3)},
}

// BenchmarkJobGeneratorNext measures drawing one E22 job per shape:
// pipeline and fork-join jobs share their template's structure, layered
// jobs build their own.
func BenchmarkJobGeneratorNext(b *testing.B) {
	for _, sh := range dagShapes {
		b.Run(sh.name, func(b *testing.B) {
			gen, err := workload.NewJobGenerator(rng.New(1), sh.tmpl)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if gen.Next() == nil {
					b.Fatal("nil job")
				}
			}
		})
	}
}

// BenchmarkRankPlace measures planning one validated 16-node fork-join
// job on E22's substrate — the rank placer's per-job cost.
func BenchmarkRankPlace(b *testing.B) {
	sys := dagSubstrate(b, 1, 0)
	gen, err := workload.NewJobGenerator(rng.New(1), dagShapes[1].tmpl)
	if err != nil {
		b.Fatal(err)
	}
	job := gen.Next()
	if err := job.Validate(); err != nil {
		b.Fatal(err)
	}
	env, pred := sys.Env, sys.Scheduler.Predictor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(dag.Rank{}.Place(job, env, pred)) != job.Len() {
			b.Fatal("short plan")
		}
	}
}
