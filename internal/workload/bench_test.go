package workload

import (
	"testing"

	"offload/internal/rng"
)

// BenchmarkStandardMix measures building the five-template generator every
// System, fleet and experiment cell starts from.
func BenchmarkStandardMix(b *testing.B) {
	src := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StandardMix(src); err != nil {
			b.Fatal(err)
		}
	}
}
