package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"offload/internal/core"
	"offload/internal/fault"
)

func TestLoadGraphTemplate(t *testing.T) {
	g, err := loadGraph("sci-batch", "")
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "sci-batch" {
		t.Fatalf("Name = %s", g.Name())
	}
}

func TestLoadGraphSpecFile(t *testing.T) {
	spec := `{
	  "name": "custom",
	  "components": [
	    {"name": "ui", "cycles": 1e7, "pinned": true},
	    {"name": "work", "cycles": 1e10}
	  ],
	  "edges": [{"from": "ui", "to": "work", "bytes": 1024}]
	}`
	path := filepath.Join(t.TempDir(), "app.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph("", path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "custom" || g.Len() != 2 {
		t.Fatalf("parsed %s with %d components", g.Name(), g.Len())
	}
}

func TestLoadGraphErrors(t *testing.T) {
	if _, err := loadGraph("", ""); err == nil {
		t.Error("neither -app nor -spec accepted")
	}
	if _, err := loadGraph("a", "b"); err == nil {
		t.Error("both -app and -spec accepted")
	}
	if _, err := loadGraph("no-such-template", ""); err == nil {
		t.Error("unknown template accepted")
	}
	if _, err := loadGraph("", "/does/not/exist.json"); err == nil {
		t.Error("missing spec file accepted")
	}
}

func TestFaultsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runFaults([]string{"-config", "testdata/faults.json"}, &buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/faults.golden")
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("faults output drifted from golden:\n%s", buf.String())
	}
}

func TestFaultsErrors(t *testing.T) {
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "faults.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		body string
	}{
		{"unknown field", `{"Typo": 1}`},
		{"inter-region link", `{"Regions": {"VM": "west", "Link": {"RTT": 1}}}`},
		{"ladder queue bound", `{"Regions": {"VM": "west", "Failover": {"Ladder": {"MaxQueue": 8}}}}`},
		{"invalid fault config", `{"Fault": {"FailureRate": 2}}`},
		{"unnamed schedule", `{"Regions": {"VM": "west", "Schedules": [{"Outages": [{"Start": 1, "Duration": 1}]}]}}`},
		{"orphan schedule", `{"Regions": {"VM": "west", "Schedules": [{"Region": "east", "Outages": [{"Start": 1, "Duration": 1}]}]}}`},
		{"duplicate schedule", `{"Regions": {"VM": "west", "Schedules": [
			{"Region": "west", "Outages": [{"Start": 1, "Duration": 1}]},
			{"Region": "west", "Outages": [{"Start": 5, "Duration": 1}]}]}}`},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := runFaults([]string{"-config", write(c.body)}, &buf); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := runFaults([]string{}, io.Discard); err == nil {
		t.Error("missing -config accepted")
	}
}

// TestFaultsOrphanScheduleErrorIsStable gives two schedules that match no
// backend: the error must name the first in the file on every run,
// whatever order a map would iterate them in.
func TestFaultsOrphanScheduleErrorIsStable(t *testing.T) {
	spec := faultsSpec{Regions: &core.RegionsConfig{VM: "west", Schedules: []fault.RegionSchedule{
		{Region: "north", Outages: []fault.Window{{Start: 1, Duration: 1}}},
		{Region: "south", Outages: []fault.Window{{Start: 1, Duration: 1}}},
	}}}
	const want = `faults: region schedule for "north" matches no backend`
	for i := 0; i < 50; i++ {
		err := describeFaults(io.Discard, spec)
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %q", i, err, want)
		}
	}
}
