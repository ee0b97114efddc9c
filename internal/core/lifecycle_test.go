package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"offload/internal/rng"
	"offload/internal/trace"
	"offload/internal/workload"
)

// spanDigest returns the SHA-256 of the span set's JSONL export and of its
// Chrome trace.
func spanDigest(t *testing.T, set *trace.SpanSet) string {
	t.Helper()
	var jsonl, chrome bytes.Buffer
	if err := set.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := set.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("spans=%d jsonl=%x chrome=%x", len(set.Spans), sha256.Sum256(jsonl.Bytes()), sha256.Sum256(chrome.Bytes()))
}

// lifecycleOutputs runs each setup whose output travels on a task's
// lifecycle events and digests what every consumer recorded: spans, the
// Chrome trace, trace records and the adaptive controller's counters.
func lifecycleOutputs(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}

	// The stack-deadline configuration: spans bounded, the observer on,
	// outcome records and adapt counters alongside.
	sys := newStackSystem(t, 3, 2000)
	rec := &trace.Recorder{}
	sys.Env.Events.Subscribe(rec)
	sys.Run()
	var records bytes.Buffer
	if err := rec.WriteJSONL(&records); err != nil {
		t.Fatal(err)
	}
	a := sys.Adapt()
	out["stack"] = fmt.Sprintf("%s records=%x region=%d drift=%d resize=%d sheds=%d",
		spanDigest(t, sys.SpanSet()), sha256.Sum256(records.Bytes()),
		a.RegionResets(), a.DriftResets(), a.Resizes(), a.Sheds())

	// DAG jobs through both placers, node spans adopted under job roots;
	// the oblivious placer's policy is the UCB bandit.
	for _, p := range []DAGPlacement{DAGOblivious, DAGRank} {
		cfg := dagConfig(p)
		if p == DAGOblivious {
			cfg.Policy = PolicyBanditUCB
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.EnableSpans()
		gen, err := workload.NewJobGenerator(rng.New(41), testJobTemplate())
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SubmitJobStream(&workload.Fixed{Gap: 5}, gen, 20); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		out["dag-"+string(p)] = spanDigest(t, sys.SpanSet())
	}

	// The sharded fleet's per-shard recorders, merged.
	cfg := DefaultConfig()
	cfg.Policy = PolicyDeadlineAware
	cfg.PredictionNoise = 0.2
	cfg.Retries = 3
	for _, shards := range []int{1, 3} {
		_, set := shardedFingerprint(t, cfg, shards, 12, 6)
		out[fmt.Sprintf("sharded-%d", shards)] = spanDigest(t, set)
	}
	return out
}

// TestLifecycleOutputsPinned pins what every consumer of a task's
// lifecycle records, byte for byte, on setups that reach the scheduler,
// failover, adaptive and DAG emitters. A change to how lifecycle events
// are delivered must leave all of it unchanged.
func TestLifecycleOutputsPinned(t *testing.T) {
	want := map[string]string{
		"stack":         "spans=12104 jsonl=ffb09c36079ae75db04cdd8e1f88b20a8648ce788fbd7fee2a864c57d0662fea chrome=436fad5f1e74d9803e07f82c3188211b8badcc9633a341bfe0b840b7a267edee records=be513abf6575477987ddbe6f1e71d3bab6aba149b69b4394a2f5fcd5a541fab7 region=10 drift=214 resize=0 sheds=319",
		"dag-oblivious": "spans=620 jsonl=63bcc85922dd07ecf783d640265c460b8cedc0b0e5c9d6e3f0b2a8013809cfca chrome=b94985f9dc3a2dd52a4dc0182dfc49a4a54323be94a4384c4c6c7688ce4a6736",
		"dag-rank":      "spans=620 jsonl=43c99ce42c7c4e2ab2cef3bf17386fb5ca3643a87fd49c41340584a06c64d209 chrome=1fc94bc40c68ecc5f4d06487e41ab9ec5434ce0763f5483d532d64f96b82eb8a",
		"sharded-1":     "spans=382 jsonl=ea6915bc93b342cad6b40fb3d820b5125ec6d1634e5f4a136ee52bd073d9d40b chrome=7af2634fb7e2161d38569cf946886d212c1ab0fc519b58cdb8e552000ef0cd54",
		"sharded-3":     "spans=382 jsonl=ea6915bc93b342cad6b40fb3d820b5125ec6d1634e5f4a136ee52bd073d9d40b chrome=7af2634fb7e2161d38569cf946886d212c1ab0fc519b58cdb8e552000ef0cd54",
	}
	got := lifecycleOutputs(t)
	if len(got) != len(want) {
		t.Fatalf("%d setups digested, %d pinned", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s:\n got %s\nwant %s", name, got[name], w)
		}
	}
}

// TestBudgetWrappedAdaptSeesRegionTransitions: the daily budget wraps the
// adaptive controller's placement decisions, and the controller must still
// hear every region going down and coming back. With a budget that never
// binds, the run is the unbudgeted run: same region resets, same failover.
func TestBudgetWrappedAdaptSeesRegionTransitions(t *testing.T) {
	run := func(budget float64) (*System, uint64) {
		cfg := stackConfig(3, 2000)
		cfg.DailyBudgetUSD = budget
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.StandardMix(sys.Src.Split())
		if err != nil {
			t.Fatal(err)
		}
		sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), stackRate), gen, 2000)
		sys.Run()
		return sys, sys.Adapt().RegionResets()
	}
	plain, want := run(0)
	budgeted, got := run(1e9)
	if want == 0 {
		t.Fatal("the outage produced no region transitions")
	}
	if got != want {
		t.Fatalf("region resets %d under a non-binding budget, %d without", got, want)
	}
	if a, b := plain.Scheduler.FailoverStats(), budgeted.Scheduler.FailoverStats(); a != b {
		t.Fatalf("failover stats differ:\nplain    %+v\nbudgeted %+v", a, b)
	}
}
