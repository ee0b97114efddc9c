package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// suiteFingerprint runs the quick-scale suite once with an Observation on
// every simulated cell and renders, per experiment, its tables and the
// full-precision exports of its registry and sampled series.
func suiteFingerprint(t *testing.T) (map[string]string, int) {
	t.Helper()
	r := &Runner{Scale: Quick(), Parallel: 2, ObserveEvery: 5}
	results, err := r.Run(context.Background(), Registry())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(results))
	registries := 0
	for _, res := range results {
		var buf bytes.Buffer
		for _, tbl := range res.Tables {
			buf.WriteString(tbl.CSV())
		}
		if res.Registry != nil {
			registries++
			if err := res.Registry.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
		}
		for _, ts := range res.Series {
			buf.WriteString(ts.Name() + "\n")
			if err := ts.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
		}
		out[res.ID] = buf.String()
	}
	return out, registries
}

// TestSuiteIdenticalAcrossRunsInOneProcess runs the quick-scale suite
// twice in one process and requires every experiment's tables, registry
// export and series to match byte for byte. Go randomises map iteration
// order on every range, so a result that depends on map order differs
// between the two runs even where the goldens, which round to three
// digits and run each cell once, cannot see it.
func TestSuiteIdenticalAcrossRunsInOneProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite twice")
	}
	first, registries := suiteFingerprint(t)
	if registries == 0 {
		t.Fatal("no experiment exported a registry")
	}
	second, _ := suiteFingerprint(t)
	for id, want := range first {
		got := second[id]
		if got == want {
			continue
		}
		wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
		for i := range wl {
			if i >= len(gl) || wl[i] != gl[i] {
				g := "<missing>"
				if i < len(gl) {
					g = gl[i]
				}
				t.Errorf("%s: run 2 differs from run 1 at line %d:\n  run 1: %s\n  run 2: %s", id, i+1, wl[i], g)
				break
			}
		}
		if len(gl) > len(wl) {
			t.Errorf("%s: run 2 has %d more lines", id, len(gl)-len(wl))
		}
	}
}
