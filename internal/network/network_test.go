package network

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"offload/internal/rng"
	"offload/internal/sim"
)

func noJitter(name string) Config {
	return Config{
		Name:        name,
		OneWayDelay: 0.010,
		UplinkBps:   8e6, // 1 MB/s
		DownlinkBps: 16e6,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"valid", func(c *Config) {}, ""},
		{"negative delay", func(c *Config) { c.OneWayDelay = -1 }, "one-way delay"},
		{"zero uplink", func(c *Config) { c.UplinkBps = 0 }, "bandwidth"},
		{"zero downlink", func(c *Config) { c.DownlinkBps = 0 }, "bandwidth"},
		{"negative jitter", func(c *Config) { c.JitterStd = -1 }, "jitter"},
		{"NaN delay", func(c *Config) { c.OneWayDelay = sim.Duration(math.NaN()) }, "one-way delay"},
		{"NaN uplink", func(c *Config) { *c = WiFiCloud(); c.UplinkBps = math.NaN() }, "bandwidth"},
		{"NaN downlink", func(c *Config) { c.DownlinkBps = math.NaN() }, "bandwidth"},
		{"NaN jitter", func(c *Config) { c.JitterStd = math.NaN() }, "jitter"},
		{"NaN rate", func(c *Config) { c.BadToGoodRate = math.NaN() }, "transition rate"},
		{"lonely rate", func(c *Config) { c.GoodToBadRate = 1 }, "together"},
		{"bad factor", func(c *Config) {
			c.GoodToBadRate, c.BadToGoodRate, c.BadFactor = 1, 1, 0
		}, "BadFactor"},
		{"bad factor above one", func(c *Config) {
			c.GoodToBadRate, c.BadToGoodRate, c.BadFactor = 1, 1, 1.5
		}, "BadFactor"},
		{"NaN bad factor", func(c *Config) {
			c.GoodToBadRate, c.BadToGoodRate, c.BadFactor = 1, 1, math.NaN()
		}, "BadFactor"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := noJitter("t")
			tt.mutate(&cfg)
			err := cfg.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestTransferDuration(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, rng.New(1), noJitter("t"))
	var rep Report
	p.Transfer(1_000_000, Uplink, func(r Report) { rep = r })
	eng.Run()
	// 10 ms propagation + 8e6 bits / 8e6 bps = 1 s.
	want := 1.010
	if math.Abs(float64(rep.Duration())-want) > 1e-9 {
		t.Fatalf("uplink duration = %v, want %v", rep.Duration(), want)
	}
	p.Transfer(1_000_000, Downlink, func(r Report) { rep = r })
	eng.Run()
	want = 0.510 // twice the bandwidth
	if math.Abs(float64(rep.Duration())-want) > 1e-9 {
		t.Fatalf("downlink duration = %v, want %v", rep.Duration(), want)
	}
}

func TestZeroByteTransferPaysPropagation(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, rng.New(1), noJitter("t"))
	var rep Report
	p.Transfer(0, Uplink, func(r Report) { rep = r })
	eng.Run()
	if math.Abs(float64(rep.Duration())-0.010) > 1e-9 {
		t.Fatalf("zero-byte duration = %v, want 0.010", rep.Duration())
	}
}

func TestEstimateMatchesActualWithoutNoise(t *testing.T) {
	f := func(kb uint16) bool {
		eng := sim.NewEngine()
		p := New(eng, rng.New(1), noJitter("t"))
		n := int64(kb) * 1024
		est := p.EstimateTransfer(n, Uplink)
		var got sim.Duration
		p.Transfer(n, Uplink, func(r Report) { got = r.Duration() })
		eng.Run()
		return math.Abs(float64(est-got)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateMonotonicInSize(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, rng.New(1), noJitter("t"))
	prev := sim.Duration(-1)
	for _, n := range []int64{0, 1, 1024, 1 << 20, 1 << 24} {
		d := p.EstimateTransfer(n, Uplink)
		if d < prev {
			t.Fatalf("EstimateTransfer not monotone at %d bytes", n)
		}
		prev = d
	}
}

func TestSerializeQueuesTransfers(t *testing.T) {
	eng := sim.NewEngine()
	cfg := noJitter("radio")
	cfg.Serialize = true
	p := New(eng, rng.New(1), cfg)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		p.Transfer(1_000_000, Uplink, func(r Report) { ends = append(ends, r.End) })
	}
	eng.Run()
	if len(ends) != 3 {
		t.Fatalf("got %d completions", len(ends))
	}
	// Serialized: ~1.01, 2.02, 3.03.
	for i, want := range []float64{1.010, 2.020, 3.030} {
		if math.Abs(float64(ends[i])-want) > 1e-6 {
			t.Fatalf("serialized completion %d at %v, want %v", i, ends[i], want)
		}
	}
}

func TestParallelTransfersOverlapWithoutSerialize(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, rng.New(1), noJitter("wan"))
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		p.Transfer(1_000_000, Uplink, func(r Report) { ends = append(ends, r.End) })
	}
	eng.Run()
	for i, e := range ends {
		if math.Abs(float64(e)-1.010) > 1e-9 {
			t.Fatalf("parallel completion %d at %v, want 1.010", i, e)
		}
	}
}

func TestDegradationSlowsTransfers(t *testing.T) {
	// With a chain that is almost always bad, transfers should take ~4x the
	// good-state time with BadFactor 0.25.
	eng := sim.NewEngine()
	cfg := noJitter("flaky")
	cfg.GoodToBadRate = 1000 // flips to bad almost immediately
	cfg.BadToGoodRate = 1e-6 // and stays there
	cfg.BadFactor = 0.25
	p := New(eng, rng.New(7), cfg)

	// Let virtual time pass so the chain can transition.
	eng.At(10, func() {
		p.Transfer(1_000_000, Uplink, func(r Report) {
			if !r.Degraded {
				t.Error("transfer not marked degraded")
			}
			want := 4.010
			if math.Abs(float64(r.Duration())-want) > 1e-6 {
				t.Errorf("degraded duration = %v, want %v", r.Duration(), want)
			}
		})
	})
	eng.Run()
}

func TestStatsAccumulate(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, rng.New(1), noJitter("t"))
	p.Transfer(100, Uplink, func(Report) {})
	p.Transfer(200, Downlink, func(Report) {})
	eng.Run()
	s := p.Stats()
	if s.Transfers != 2 || s.BytesUp != 100 || s.BytesDown != 200 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, rng.New(1), noJitter("t"))
	defer func() {
		if recover() == nil {
			t.Fatal("negative transfer did not panic")
		}
	}()
	p.Transfer(-1, Uplink, func(Report) {})
}

func TestPresetsValid(t *testing.T) {
	presets := map[string]Config{
		"wifi-cloud": WiFiCloud(),
		"lte-cloud":  LTECloud(),
		"lan-edge":   LANEdge(),
		"5g-edge":    FiveGEdge(),
	}
	for name, cfg := range presets {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if cfg.Name != name {
			t.Errorf("preset %s has Name %q", name, cfg.Name)
		}
	}
	// The edge paths must be strictly closer than the cloud paths: the
	// entire edge-vs-cloud tradeoff rests on this.
	if LANEdge().OneWayDelay >= WiFiCloud().OneWayDelay {
		t.Error("LAN edge not closer than WiFi cloud")
	}
	if FiveGEdge().OneWayDelay >= LTECloud().OneWayDelay {
		t.Error("5G edge not closer than LTE cloud")
	}
}

func TestJitterNeverNegative(t *testing.T) {
	eng := sim.NewEngine()
	cfg := noJitter("jittery")
	cfg.JitterStd = 5 // enormous jitter relative to the mean
	p := New(eng, rng.New(3), cfg)
	for i := 0; i < 200; i++ {
		p.Transfer(10, Uplink, func(r Report) {
			if r.Duration() < 0 {
				t.Errorf("negative transfer duration %v", r.Duration())
			}
		})
		eng.Run()
	}
}
