package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scenarioTables runs `offctl run` with args and returns its output
// without the title line (which names the policy or the replayed file)
// and without the "wrote N trace records" line.
func scenarioTables(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := runScenario(args, &buf); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	lines := strings.Split(buf.String(), "\n")
	if !strings.HasPrefix(lines[0], "== offctl run: ") {
		t.Fatalf("run %v: title line %q", args, lines[0])
	}
	var kept []string
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "wrote ") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "\n")
}

// TestRunReplayReproducesTrace records a generated run and replays the
// trace under the same policy and seed: the replay submits the same tasks
// at the same instants, so every table matches the original run's.
func TestRunReplayReproducesTrace(t *testing.T) {
	for _, policy := range []string{"deadline-aware", "cloud-all", "random"} {
		t.Run(policy, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jsonl")
			orig := scenarioTables(t, "-policy", policy, "-seed", "1", "-tasks", "200", "-trace", path)
			if !strings.Contains(orig, "completed                200") {
				t.Fatalf("original run did not complete 200 tasks:\n%s", orig)
			}
			replay := scenarioTables(t, "-policy", policy, "-seed", "1", "-replay", path)
			if replay != orig {
				t.Errorf("replay tables differ from the recorded run:\n--- recorded\n%s\n--- replayed\n%s", orig, replay)
			}
		})
	}
}

func TestRunReplayRejectsMalformedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	body := `{"task_id":1,"app":"ml-batch","placement":"cloud","submitted_s":0,"finished_s":1,"cycles":1e9}` + "\n{not json\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runScenario([]string{"-replay", path}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed trace: err = %v, want one naming line 2", err)
	}
}

func TestRunRejectsUnknownPolicy(t *testing.T) {
	if err := runScenario([]string{"-policy", "no-such-policy", "-tasks", "1"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
