package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Errorf("quantile of nothing should be NaN")
	}
}

// A stalled response delays the request queued behind it; timed from its
// due time, the queued request carries the stall.
func TestSummarisePhaseTimesFromDueTime(t *testing.T) {
	msd := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	recs := []rec{
		{kind: opSubmit, due: msd(0), done: msd(10), status: 202}, // stalled 10 ms
		{kind: opSubmit, due: msd(1), done: msd(11), status: 202}, // sent at 10, due at 1
		{kind: opReport, due: msd(2), done: msd(12), status: 200}, // read behind both
		{kind: opScrape, due: msd(0), done: msd(5), status: 200},  // scrapes are timed apart
		{kind: opSubmit, due: msd(3), done: msd(13), status: 202, generatorLag: msd(0.5)},
	}
	s := summarisePhase(recs, 100)
	if want := []float64{10, 10, 10}; len(s.submitMS) != 3 || !near(s.submitMS[1], want[1]) {
		t.Errorf("submit latencies %v, want %v", s.submitMS, want)
	}
	if len(s.reportMS) != 1 || !near(s.reportMS[0], 10) {
		t.Errorf("report latencies %v, want [10]", s.reportMS)
	}
	if len(s.scrapeMS) != 1 || !near(s.scrapeMS[0], 5) {
		t.Errorf("scrape latencies %v, want [5]", s.scrapeMS)
	}
	if s.accepted != 3 || s.refused != 0 {
		t.Errorf("accepted %d refused %d, want 3 and 0", s.accepted, s.refused)
	}
	// Four non-scrape requests from the first due time (0) to the last
	// response (13 ms).
	if want := 4 / 0.013; !near(s.achieved, want) {
		t.Errorf("achieved %v, want %v", s.achieved, want)
	}
	if !near(s.maxLagMS, 0.5) {
		t.Errorf("generator lateness %v ms, want 0.5", s.maxLagMS)
	}
}

func TestCheckStatusesRejectsNon2xx(t *testing.T) {
	ok := []rec{{kind: opSubmit, status: 202, done: time.Millisecond}}
	if err := checkStatuses(summarisePhase(ok, 1)); err != nil {
		t.Fatalf("all-2xx phase rejected: %v", err)
	}
	for name, bad := range map[string]rec{
		"429":       {kind: opSubmit, status: 429},
		"503":       {kind: opReport, status: 503},
		"transport": {kind: opSubmit, err: errors.New("connection reset")},
	} {
		s := summarisePhase(append(append([]rec(nil), ok...), bad), 1)
		if err := checkStatuses(s); err == nil {
			t.Errorf("%s response accepted", name)
		}
		if s.step().passes() {
			t.Errorf("a step with a %s response passes", name)
		}
	}
}

func TestCheckAcceptedComparesDaemonCounter(t *testing.T) {
	text := "# TYPE serve_accepted counter\nserve_accepted 12\nserve_accepted_total_other 3\n"
	if err := checkAccepted(text, 12); err != nil {
		t.Errorf("matching counts rejected: %v", err)
	}
	if err := checkAccepted(text, 11); err == nil {
		t.Errorf("daemon 12 vs driver 11 accepted")
	}
	if err := checkAccepted("serve_shed 0\n", 0); err == nil {
		t.Errorf("missing serve_accepted accepted")
	}
}

func TestMarginalSubtractsTheRungBelow(t *testing.T) {
	cum := []layerCost{
		{Layer: "a", NS: 100, Allocs: 1, Bytes: 64},
		{Layer: "b", NS: 350, Allocs: 4, Bytes: 512},
		{Layer: "c", NS: 300, Allocs: 4, Bytes: 600},
	}
	got := marginal(cum)
	want := []layerCost{
		{Layer: "a", NS: 100, Allocs: 1, Bytes: 64},
		{Layer: "b", NS: 250, Allocs: 3, Bytes: 448},
		{Layer: "c", NS: -50, Allocs: 0, Bytes: 88},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rung %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	var sum float64
	for _, c := range got {
		sum += c.NS
	}
	if sum != cum[len(cum)-1].NS {
		t.Errorf("marginals sum to %v, want the full stack's %v", sum, cum[len(cum)-1].NS)
	}
}

// knee is a fake daemon whose p90 is 1 ms up to limit and then grows with
// the square of the overload.
func knee(limit float64) func(float64) rateStep {
	return func(rate float64) rateStep {
		st := rateStep{Offered: rate, Achieved: rate, P90MS: 1}
		if rate > limit {
			st.P90MS = 1 + 100*(rate/limit-1)*(rate/limit-1)
		}
		return st
	}
}

func offeredRates(steps []rateStep) []float64 {
	var out []float64
	for _, st := range steps {
		out = append(out, st.Offered)
	}
	return out
}

func TestClimbRatesStopsAfterTwoFailures(t *testing.T) {
	// 1000, 2000 and 4000 pass; 8000 has p90 = 1 + 100·0.36 = 37 ms and
	// 16000 fails too.
	if got := offeredRates(climbRates(1000, 2, 64000, knee(5000))); len(got) != 5 || got[4] != 16000 {
		t.Errorf("offered %v, want 1000 2000 4000 8000 16000", got)
	}
	// A lone spike at 2000 does not end the climb.
	spiky := func(rate float64) rateStep {
		st := knee(5000)(rate)
		if rate == 2000 {
			st.P90MS = 30
		}
		return st
	}
	if got := offeredRates(climbRates(1000, 2, 64000, spiky)); len(got) != 5 {
		t.Errorf("offered %v, want the climb to continue past the spike at 2000", got)
	}
	if got := climbRates(1000, 2, 3000, knee(1e9)); len(got) != 2 {
		t.Errorf("climb past top: %d steps, want 2 (1000 and 2000)", len(got))
	}
}

func TestMaxRPSInterpolatesTheLatencyCrossing(t *testing.T) {
	steps := []rateStep{
		{Offered: 4000, Achieved: 4000, P90MS: 1},
		{Offered: 8000, Achieved: 8000, P90MS: 25},
	}
	// log p90 runs from log 1 to log 25 over log 4000 .. log 8000; it
	// crosses log 5 halfway, at the geometric mean.
	got, ok := maxRPS(steps)
	if !ok || !near(got, math.Sqrt(4000*8000)) {
		t.Errorf("maxRPS = %v, %v; want %v", got, ok, math.Sqrt(4000*8000))
	}
	for _, c := range []struct {
		name string
		fail rateStep
	}{
		{"refused", rateStep{Offered: 8000, Achieved: 8000, P90MS: 25, Refused: 1}},
		{"fell behind within the limit", rateStep{Offered: 8000, Achieved: 7000, P90MS: 4}},
	} {
		got, ok := maxRPS([]rateStep{steps[0], c.fail})
		if !ok || got != 4000 {
			t.Errorf("%s: maxRPS = %v, %v; want the last passing rate 4000", c.name, got, ok)
		}
	}
	if got, ok := maxRPS(steps[:1]); !ok || got != 4000 {
		t.Errorf("no failing step: maxRPS = %v, %v; want the highest rate offered", got, ok)
	}
	spike := rateStep{Offered: 2000, Achieved: 2000, P90MS: 30}
	withSpike := []rateStep{{Offered: 1000, Achieved: 1000, P90MS: 1}, spike, steps[0], steps[1]}
	if got, ok := maxRPS(withSpike); !ok || !near(got, math.Sqrt(4000*8000)) {
		t.Errorf("spike at 2000: maxRPS = %v, %v; want the crossing above 4000", got, ok)
	}
	if _, ok := maxRPS(steps[1:]); ok {
		t.Error("a ladder whose first step failed reported a rate")
	}
}

func TestRateStepNeedsAchievedRateAndNoRefusals(t *testing.T) {
	for _, c := range []struct {
		st   rateStep
		want bool
	}{
		{rateStep{Offered: 1000, Achieved: 990, P90MS: 4}, true},
		{rateStep{Offered: 1000, Achieved: 900, P90MS: 4}, false}, // fell behind
		{rateStep{Offered: 1000, Achieved: 1000, P90MS: 6}, false},
		{rateStep{Offered: 1000, Achieved: 1000, P90MS: 1, Refused: 1}, false},
	} {
		if got := c.st.passes(); got != c.want {
			t.Errorf("%+v passes = %v, want %v", c.st, got, c.want)
		}
	}
}

func TestCheckConservationRejectsMismatch(t *testing.T) {
	if err := checkConservation(90, 10, 100); err != nil {
		t.Errorf("balanced run rejected: %v", err)
	}
	if err := checkConservation(90, 9, 100); err == nil {
		t.Errorf("a lost task was accepted")
	}
	if err := checkConservation(91, 10, 100); err == nil {
		t.Errorf("an invented task was accepted")
	}
}

func TestCheckSectionsRejectsAlteredSection(t *testing.T) {
	raw, err := os.ReadFile("../results/offbench_full.txt")
	if err != nil {
		t.Skip("committed suite output not present:", err)
	}
	golden := splitSections(string(raw))
	if len(golden) != 22 {
		t.Fatalf("split %d sections from the committed output, want 22 (E1–E22)", len(golden))
	}
	rendered := map[string]string{"E3": golden["E3"], "E15": golden["E15"]}
	if err := checkSections(rendered, golden); err != nil {
		t.Fatalf("identical sections rejected: %v", err)
	}
	rendered["E15"] = strings.Replace(golden["E15"], "$", "€", 1)
	err = checkSections(rendered, golden)
	if err == nil || !strings.Contains(err.Error(), "E15") || strings.Contains(err.Error(), "E3") {
		t.Errorf("altered E15 gave %v, want an error naming E15 only", err)
	}
	if err := checkSections(map[string]string{"E99": "x"}, golden); err == nil {
		t.Errorf("a section with no committed counterpart was accepted")
	}
}

func TestScheduleMixesReadsAndScrapes(t *testing.T) {
	q := &requests{submits: [][]byte{[]byte("a"), []byte("b")}, report: []byte("r"), scrape: []byte("s")}
	next := 0
	ops := schedule(q, &next, 100, 2*time.Second)
	var submits, reports, scrapes int
	var last time.Duration
	for _, o := range ops {
		if o.due < last {
			t.Fatalf("ops out of due order at %v", o.due)
		}
		last = o.due
		switch o.kind {
		case opSubmit:
			submits++
		case opReport:
			reports++
		case opScrape:
			scrapes++
		}
	}
	if submits != 180 || reports != 20 || scrapes != 2 {
		t.Errorf("got %d submits, %d reads, %d scrapes; want 180, 20, 2", submits, reports, scrapes)
	}
	if next != 180 {
		t.Errorf("handed out %d bodies, want 180", next)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "phase", Start: 0, End: 0.010},
		{ID: 2, Parent: 1, Name: "http", Start: 0.001, End: 0.003},
		{ID: 3, Parent: 1, Name: "http", Start: 0.002, End: 0.004}, // overlaps 2
		{ID: 4, Parent: 1, Name: "http", Start: 0.006, End: 0.007},
	}
	self := selfTimes(spans)
	if !near(self["phase"], 6) {
		t.Errorf("phase self time %v ms, want 6", self["phase"])
	}
	if !near(self["http"], 5) {
		t.Errorf("http self time %v ms, want 5", self["http"])
	}
}

func TestSpanRecorderNilIsInert(t *testing.T) {
	var sp *spanRecorder
	ran := false
	sp.do("x", sp.begin("y", 0), func(uint64) { ran = true })
	if !ran {
		t.Error("nil recorder skipped the call")
	}
}

// The metric names the benchmark prints are exactly the ones
// BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, printed map[string]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
		}
		for _, m := range declared {
			if u, ok := printed[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s declared in %s, printed as %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, e2eUnits)
	compare("per_layer", spec.PerLayer, layerUnits)
	for _, w := range spec.Work {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s declared but not implemented", w.Name)
		}
	}
}
