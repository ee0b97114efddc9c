package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"

	"offload/internal/metrics"
)

// suiteRun is one quick-scale run of the whole suite with an Observation
// on every simulated cell, keyed by experiment ID.
type suiteRun struct {
	// rendered holds the tables' CSV and the full-precision exports of
	// the registry and sampled series.
	rendered map[string]string
	// digests holds tablesDigest of the experiment's tables.
	digests    map[string]string
	registries int
}

func runSuite() (suiteRun, error) {
	r := &Runner{Scale: Quick(), Parallel: 2, ObserveEvery: 5}
	results, err := r.Run(context.Background(), Registry())
	if err != nil {
		return suiteRun{}, err
	}
	run := suiteRun{rendered: make(map[string]string, len(results)), digests: make(map[string]string, len(results))}
	for _, res := range results {
		var buf bytes.Buffer
		for _, tbl := range res.Tables {
			buf.WriteString(tbl.CSV())
		}
		if res.Registry != nil {
			run.registries++
			if err := res.Registry.WriteCSV(&buf); err != nil {
				return suiteRun{}, err
			}
		}
		for _, ts := range res.Series {
			buf.WriteString(ts.Name() + "\n")
			if err := ts.WriteCSV(&buf); err != nil {
				return suiteRun{}, err
			}
		}
		run.rendered[res.ID] = buf.String()
		run.digests[res.ID] = tablesDigest(res.Tables)
	}
	return run, nil
}

var firstRun struct {
	once sync.Once
	run  suiteRun
	err  error
}

// sharedSuiteRun returns this test process's first suite run, making it
// on first use, so the tests that need one run share it.
func sharedSuiteRun(t *testing.T) suiteRun {
	t.Helper()
	firstRun.once.Do(func() { firstRun.run, firstRun.err = runSuite() })
	if firstRun.err != nil {
		t.Fatal(firstRun.err)
	}
	return firstRun.run
}

// tablesDigest hashes the exact values of tables (Table.WriteValues) into
// one hex SHA-256.
func tablesDigest(tables []*metrics.Table) string {
	h := sha256.New()
	for _, tbl := range tables {
		tbl.WriteValues(h) // writes to a hash never fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSuiteIdenticalAcrossRunsInOneProcess runs the quick-scale suite
// twice in one process and requires every experiment's tables to hold
// the same values bit for bit, and its tables, registry export and
// series to match byte for byte. Go randomises map iteration order on
// every range, so a result that depends on map order differs between the
// two runs even where the goldens, which round to three digits and run
// each cell once, cannot see it.
func TestSuiteIdenticalAcrossRunsInOneProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite twice")
	}
	first := sharedSuiteRun(t)
	if first.registries == 0 {
		t.Fatal("no experiment exported a registry")
	}
	second, err := runSuite()
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range first.digests {
		if got := second.digests[id]; got != want {
			t.Errorf("%s: run 2's table values differ from run 1's at full precision", id)
		}
	}
	for id, want := range first.rendered {
		got := second.rendered[id]
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
