package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"offload/internal/adapt"
	"offload/internal/fault"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/workload"
)

// assemblyCase is one configuration of the pinned assembly matrix. fleet
// and sharded say whether NewFleet and NewShardedFleet are pinned too:
// only where the constructor accepts the configuration and gives it the
// same meaning as NewSystem's per-UE assembly.
type assemblyCase struct {
	name           string
	fleet, sharded bool
	mutate         func(*Config)
}

func assemblyCases() []assemblyCase {
	var cases []assemblyCase
	// Every subset of the three remote substrates, VM without serverless
	// included, under the random policy (which draws its own split).
	for mask := 0; mask < 8; mask++ {
		edge, sl, vm := mask&1 != 0, mask&2 != 0, mask&4 != 0
		cases = append(cases, assemblyCase{
			name:  fmt.Sprintf("subset-e%t-s%t-v%t", edge, sl, vm),
			fleet: true, sharded: true,
			mutate: func(c *Config) {
				c.Policy = PolicyRandom
				if !edge {
					c.Edge, c.EdgePath = nil, nil
				}
				if !sl {
					c.Serverless = nil
				}
				if !vm {
					c.VM = nil
				}
				if !sl && !vm {
					c.CloudPath = nil
				}
			},
		})
	}
	flaky := func(c *Config) {
		sl := serverless.LambdaLike()
		sl.FailureRate = 0.3
		c.Serverless = &sl
		c.Policy = PolicyCloudAll
		c.Retries, c.RetryBackoff = 3, 2
	}
	return append(cases,
		assemblyCase{"bandit-ucb", true, false, func(c *Config) { c.Policy = PolicyBanditUCB }},
		assemblyCase{"adapt-wrap", true, false, func(c *Config) {
			c.Policy = PolicyRandom
			a := adapt.DefaultConfig()
			c.Adapt = &a
		}},
		assemblyCase{"noise", true, true, func(c *Config) {
			c.Policy = PolicyRandom
			c.PredictionNoise = 0.2
		}},
		assemblyCase{"retries", true, true, flaky},
		assemblyCase{"retry-jitter", false, false, func(c *Config) {
			flaky(c)
			c.RetryMaxBackoff, c.RetryJitter = 5, true
		}},
		assemblyCase{"dvfs", false, false, func(c *Config) {
			c.Policy = PolicyLocalOnly
			c.LocalDVFSMinScale = 0.4
		}},
		assemblyCase{"local", true, true, func(c *Config) { c.Policy = PolicyLocalOnly }},
		assemblyCase{"budget", false, false, func(c *Config) {
			c.Policy = PolicyCloudAll
			c.DailyBudgetUSD = 1e-5
		}},
		assemblyCase{"cloud", true, true, func(c *Config) { c.Policy = PolicyCloudAll }},
		assemblyCase{"faults", false, false, func(c *Config) {
			c.Policy = PolicyRandom
			c.Retries = 2
			c.Fault = &fault.Config{FailureRate: 0.2, StragglerProb: 0.1, StragglerFactor: 3, StragglerAlpha: 1.5}
			c.EdgeFault = &fault.Config{GoodToBadRate: 1.0 / 200, BadToGoodRate: 1.0 / 50, BadFailRate: 0.5}
			c.VMFault = &fault.Config{FailureRate: 0.1}
		}},
		assemblyCase{"regions", false, false, func(c *Config) {
			c.Policy = PolicyRandom
			c.Regions = &RegionsConfig{
				Edge: "metro", Serverless: "east", VM: "west",
				Schedules: []fault.RegionSchedule{{
					Region:       "metro",
					Outages:      []fault.Window{{Start: 100, Duration: 100}},
					RecoveryRamp: 30,
				}, {
					Region:  "west",
					Outages: []fault.Window{{Start: 150, Duration: 50}},
				}},
				Failover: &sched.Failover{FailureThreshold: 2, ProbeEvery: 10},
			}
		}},
	)
}

// statsKey hashes everything a run's aggregate statistics expose. The
// placements enter as sorted name=n strings of the ones used.
func statsKey(c, f, m, r uint64, mean, cost, energy, fcost, fenergy float64, by [model.NumPlacements]uint64) string {
	var places []string
	for p, n := range by {
		if n > 0 {
			places = append(places, fmt.Sprintf("%v=%d", model.Placement(p), n))
		}
	}
	sort.Strings(places)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %d %x %x %x %x %x %v", c, f, m, r, mean, cost, energy, fcost, fenergy, places)
	return fmt.Sprintf("%016x", h.Sum64())
}

func systemFingerprint(t *testing.T, cfg Config) string {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := sys.Src.Uint64()
	gen, err := workload.StandardMix(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sys.SubmitStream(workload.NewPoisson(rng.New(8), 0.05), gen, 20)
	sys.Run()
	st := sys.Stats()
	return fmt.Sprintf("next=%016x fired=%d stats=%s", next, sys.Eng.Fired(),
		statsKey(st.Completed, st.Failed, st.Missed, st.Retries, st.MeanCompletion(),
			st.CostUSD, st.EnergyMilliJ, st.FailedCostUSD, st.FailedEnergyMilliJ, st.ByPlacement))
}

func fleetKey(st FleetStats) string {
	return statsKey(st.Completed, st.Failed, st.Missed, st.Retries, st.MeanCompletion,
		st.CostUSD, st.EnergyMilliJ, st.FailedCostUSD, st.FailedEnergyMilliJ, st.ByPlacement)
}

func fleetFingerprint(t *testing.T, cfg Config) string {
	t.Helper()
	f, err := NewFleet(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	next := f.Src.Uint64()
	if err := f.SubmitStreams(0.05, 6); err != nil {
		t.Fatal(err)
	}
	f.Run()
	return fmt.Sprintf("next=%016x fired=%d stats=%s", next, f.Eng.Fired(), fleetKey(f.Stats()))
}

func shardedAssemblyFingerprint(t *testing.T, cfg Config) string {
	t.Helper()
	f, err := NewShardedFleet(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	next := make([]string, len(f.ueSrc))
	for i, src := range f.ueSrc {
		next[i] = fmt.Sprintf("%016x", src.Uint64())
	}
	if err := f.SubmitStreams(0.05, 6); err != nil {
		t.Fatal(err)
	}
	f.Run()
	return fmt.Sprintf("next=%v fired=%d stats=%s", next, f.Events(), fleetKey(f.Stats()))
}

// TestAssemblyStreamsPinned pins the construction order of every
// assembly path. The first draw from a constructor's source right after
// construction exposes how many splits it made; the fired-event count and
// the stats of a short seeded run expose the order of those splits. The
// experiment goldens cover only the configurations the experiments use;
// this matrix covers every substrate subset and every stream-drawing
// feature, so a refactor of the assembly that reorders or adds a split
// fails here first.
func TestAssemblyStreamsPinned(t *testing.T) {
	want := pinnedAssembly
	seen := map[string]bool{}
	check := func(key, got string) {
		seen[key] = true
		if want[key] != got {
			t.Errorf("%s:\n got  %s\n want %s", key, got, want[key])
		}
	}
	for _, tc := range assemblyCases() {
		cfg := DefaultConfig()
		cfg.Seed = 3
		tc.mutate(&cfg)
		check(tc.name+"/system", systemFingerprint(t, cfg))
		if tc.fleet {
			check(tc.name+"/fleet", fleetFingerprint(t, cfg))
		}
		if tc.sharded {
			check(tc.name+"/sharded", shardedAssemblyFingerprint(t, cfg))
		}
	}
	for key := range want {
		if !seen[key] {
			t.Errorf("pinned %s no longer runs", key)
		}
	}
}

// pinnedAssembly holds each constructor's fingerprint per case, recorded
// before the constructors shared one assembly path.
var pinnedAssembly = map[string]string{
	"subset-efalse-sfalse-vfalse/system":  "next=a3fd1dea5e1864ee fired=60 stats=27bd3698ffcf71e1",
	"subset-efalse-sfalse-vfalse/fleet":   "next=88b1b58b236f3bea fired=54 stats=f3be5f93d1b826d5",
	"subset-efalse-sfalse-vfalse/sharded": "next=[644e34c0e830790e d2c959c385764721 09239d1778b3225e] fired=54 stats=69d5b1f76aeab6e2",
	"subset-etrue-sfalse-vfalse/system":   "next=37e00afb3229fd51 fired=96 stats=eb10b350b95480c9",
	"subset-etrue-sfalse-vfalse/fleet":    "next=35cd8bb5e1fa7256 fired=94 stats=ab05f85ebb177472",
	"subset-etrue-sfalse-vfalse/sharded":  "next=[9c629148198a4df2 d733ba309ea86dc0 5e6ead506a3257b6] fired=99 stats=d990c7ac6ab52344",
	"subset-efalse-strue-vfalse/system":   "next=88b1b58b236f3bea fired=122 stats=5a86b6842fdacf98",
	"subset-efalse-strue-vfalse/fleet":    "next=b72fe6e16b6fb4e6 fired=117 stats=94859d114189cdfb",
	"subset-efalse-strue-vfalse/sharded":  "next=[9c629148198a4df2 d733ba309ea86dc0 5e6ead506a3257b6] fired=105 stats=3169ab9cf2291dbf",
	"subset-etrue-strue-vfalse/system":    "next=6cb24c8fb224980a fired=113 stats=a72c61c04b3823e8",
	"subset-etrue-strue-vfalse/fleet":     "next=ec616a6e46e96dec fired=97 stats=5c9bcedef4386887",
	"subset-etrue-strue-vfalse/sharded":   "next=[8df6b4da716929e6 d6dd08222c833cd6 debb17b60ca3c46a] fired=119 stats=6467bd745121ae74",
	"subset-efalse-sfalse-vtrue/system":   "next=37e00afb3229fd51 fired=87 stats=9de46c8a665ce7f9",
	"subset-efalse-sfalse-vtrue/fleet":    "next=35cd8bb5e1fa7256 fired=84 stats=78ed8cbf620e2b39",
	"subset-efalse-sfalse-vtrue/sharded":  "next=[9c629148198a4df2 d733ba309ea86dc0 5e6ead506a3257b6] fired=90 stats=55606eb9a6d2fdd2",
	"subset-etrue-sfalse-vtrue/system":    "next=88b1b58b236f3bea fired=110 stats=1c166a98bcdfd012",
	"subset-etrue-sfalse-vtrue/fleet":     "next=31f25047faa8e5d4 fired=99 stats=2762a96e347aaa97",
	"subset-etrue-sfalse-vtrue/sharded":   "next=[8df6b4da716929e6 d6dd08222c833cd6 debb17b60ca3c46a] fired=107 stats=804c8017776d93ec",
	"subset-efalse-strue-vtrue/system":    "next=88b1b58b236f3bea fired=116 stats=d72d35f121ac5152",
	"subset-efalse-strue-vtrue/fleet":     "next=b72fe6e16b6fb4e6 fired=104 stats=2cc99c6ceb7a9dbd",
	"subset-efalse-strue-vtrue/sharded":   "next=[9c629148198a4df2 d733ba309ea86dc0 5e6ead506a3257b6] fired=121 stats=a4c05c9d66529049",
	"subset-etrue-strue-vtrue/system":     "next=6cb24c8fb224980a fired=107 stats=debaaff82e272939",
	"subset-etrue-strue-vtrue/fleet":      "next=ec616a6e46e96dec fired=106 stats=72dae026aff2d791",
	"subset-etrue-strue-vtrue/sharded":    "next=[8df6b4da716929e6 d6dd08222c833cd6 debb17b60ca3c46a] fired=121 stats=7c20a470ce493067",
	"bandit-ucb/system":                   "next=6cb24c8fb224980a fired=80 stats=79c692c922ed7927",
	"bandit-ucb/fleet":                    "next=ec616a6e46e96dec fired=58 stats=712b76f82e88e52b",
	"adapt-wrap/system":                   "next=6cb24c8fb224980a fired=107 stats=debaaff82e272939",
	"adapt-wrap/fleet":                    "next=ec616a6e46e96dec fired=106 stats=72dae026aff2d791",
	"noise/system":                        "next=6646287ee2a98083 fired=107 stats=debaaff82e272939",
	"noise/fleet":                         "next=c1276908f843b688 fired=101 stats=23fa406fae066620",
	"noise/sharded":                       "next=[77a001c815faeab7 247fec9e86e4c8c0 72286d871396bb07] fired=120 stats=03f23c9aaac724c3",
	"retries/system":                      "next=88b1b58b236f3bea fired=167 stats=b6f8de4083fcd00e",
	"retries/fleet":                       "next=b72fe6e16b6fb4e6 fired=190 stats=fc847da48bc0c951",
	"retries/sharded":                     "next=[9c629148198a4df2 d733ba309ea86dc0 5e6ead506a3257b6] fired=198 stats=7d95898c1ccb68fb",
	"retry-jitter/system":                 "next=6cb24c8fb224980a fired=167 stats=5cd619838d36f3b7",
	"dvfs/system":                         "next=88b1b58b236f3bea fired=60 stats=7e967b2c1039d413",
	"local/system":                        "next=88b1b58b236f3bea fired=60 stats=27bd3698ffcf71e1",
	"local/fleet":                         "next=b72fe6e16b6fb4e6 fired=54 stats=29c498ebe7c29fcd",
	"local/sharded":                       "next=[9c629148198a4df2 d733ba309ea86dc0 5e6ead506a3257b6] fired=54 stats=28296c8a93a55edf",
	"budget/system":                       "next=88b1b58b236f3bea fired=141 stats=8cef7a3b1c0c2429",
	"cloud/system":                        "next=88b1b58b236f3bea fired=147 stats=5ff0e557e860f9f3",
	"cloud/fleet":                         "next=b72fe6e16b6fb4e6 fired=135 stats=a9ec4ab0d517f0f7",
	"cloud/sharded":                       "next=[9c629148198a4df2 d733ba309ea86dc0 5e6ead506a3257b6] fired=151 stats=2ee46e0bc420567a",
	"faults/system":                       "next=b72fe6e16b6fb4e6 fired=111 stats=18981c365316fd1a",
	"regions/system":                      "next=35cd8bb5e1fa7256 fired=110 stats=40a4839f74d5cc0e",
}
