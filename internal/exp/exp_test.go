package exp

import (
	"math"
	"strings"
	"testing"

	"offload/internal/metrics"
)

// rowOf returns the first row of tbl whose cells match every column/value
// pair in kv: a string value is compared with the cell as it renders, a
// float64 with the stored number.
func rowOf(t *testing.T, tbl *metrics.Table, kv ...any) int {
	t.Helper()
	for i := 0; i < tbl.Len(); i++ {
		match := true
		for j := 0; j < len(kv) && match; j += 2 {
			col := kv[j].(string)
			switch want := kv[j+1].(type) {
			case string:
				match = tbl.Text(i, col) == want
			case float64:
				match = tbl.Float(i, col) == want
			default:
				t.Fatalf("rowOf: unsupported key %T", want)
			}
		}
		if match {
			return i
		}
	}
	t.Fatalf("table %q has no row %v", tbl.Title(), kv)
	return -1
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 22 {
		t.Fatalf("registry has %d experiments, want 22", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestE1Shape(t *testing.T) {
	tables, err := E1Placement(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if tbl.Len() != 25 { // 5 apps × 5 policies
		t.Fatalf("E1 has %d rows, want 25", tbl.Len())
	}
	for _, a := range []string{"sci-batch", "report-gen", "ml-batch"} {
		local := rowOf(t, tbl, "app", a, "policy", "local-only")
		cloud := rowOf(t, tbl, "app", a, "policy", "cloud-all")
		edge := rowOf(t, tbl, "app", a, "policy", "edge-all")
		aware := rowOf(t, tbl, "app", a, "policy", "deadline-aware")
		// The thesis: cloud offloading beats local on completion time for
		// compute-heavy apps, at micro-dollar cost and far less energy.
		if c, l := tbl.Float(cloud, "mean_s"), tbl.Float(local, "mean_s"); c >= l {
			t.Errorf("%s: cloud (%gs) not faster than local (%gs)", a, c, l)
		}
		if tbl.Float(cloud, "task_mJ") >= tbl.Float(local, "task_mJ") {
			t.Errorf("%s: cloud energy not below local", a)
		}
		// Local pays no money; edge pays no marginal money but carries the
		// infrastructure column; cloud carries no infrastructure.
		if tbl.Float(local, "task_usd") != 0 || tbl.Float(local, "infra_usd") != 0 {
			t.Errorf("%s: local-only costs money", a)
		}
		if tbl.Float(edge, "infra_usd") <= 0 {
			t.Errorf("%s: edge has no infrastructure cost", a)
		}
		if tbl.Float(cloud, "infra_usd") != 0 {
			t.Errorf("%s: cloud-all charged infrastructure", a)
		}
		if tbl.Float(aware, "infra_usd") != 0 {
			t.Errorf("%s: deadline-aware charged infrastructure", a)
		}
	}
}

func TestE2Shape(t *testing.T) {
	tables, err := E2MemorySweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if n := tables[0].Len(); n < 20 {
		t.Fatalf("E2 curve has %d rows", n)
	}
	summary := tables[1]
	for r := 0; r < summary.Len(); r++ {
		profile := summary.Text(r, "profile")
		if c, o := summary.Float(r, "chosen_mb"), summary.Float(r, "optimum_mb"); c != o {
			t.Errorf("profile %s: allocator picked %g MB, optimum %g MB", profile, c, o)
		}
		if summary.Float(r, "chosen_usd") > summary.Float(r, "optimum_usd")*1.0001 {
			t.Errorf("profile %s: chosen cost above optimum", profile)
		}
	}
}

func TestE3Shape(t *testing.T) {
	tables, err := E3Partition(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	for r := 0; r < tbl.Len(); r++ {
		graph := tbl.Text(r, "graph")
		mc, local := tbl.Float(r, "min_cut"), tbl.Float(r, "all_local")
		if gap := tbl.Float(r, "mincut_gap"); gap > 1e-4 {
			t.Errorf("graph %s: min-cut gap %g above 0.01%%", graph, gap)
		}
		if mc > local+1e-12 || mc > tbl.Float(r, "all_remote")+1e-12 {
			t.Errorf("graph %s: min-cut worse than a trivial assignment", graph)
		}
		if tbl.Float(r, "greedy") > local+1e-12 {
			t.Errorf("graph %s: greedy worse than all-local", graph)
		}
	}
}

func TestE4Shape(t *testing.T) {
	tables, err := E4ColdStart(Quick())
	if err != nil {
		t.Fatal(err)
	}
	cold := tables[0]
	for r := 0; r < cold.Len(); r++ {
		if c := cold.Float(r, "cold_frac"); cold.Float(r, "keepalive_s") == 0 && c != 1 {
			t.Errorf("keep-alive 0 with cold fraction %g", c)
		}
	}
	// At a fixed moderate rate, cold fraction must fall with keep-alive.
	last := math.Inf(1)
	for r := 0; r < cold.Len(); r++ {
		if cold.Float(r, "rate_per_s") != 0.02 {
			continue
		}
		c := cold.Float(r, "cold_frac")
		if c > last+1e-9 {
			t.Errorf("cold fraction rose with keep-alive at rate 0.02: %v -> %v", last, c)
		}
		last = c
	}
	// Batching: cold fraction strictly falls as batch size grows.
	prev := math.Inf(1)
	for _, c := range tables[1].Column("cold_frac") {
		if c > prev+1e-9 {
			t.Errorf("batching did not reduce cold starts: %v after %v", c, prev)
		}
		prev = c
	}
}

func TestE5Shape(t *testing.T) {
	tables, err := E5Energy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	for r := 0; r < tbl.Len(); r++ {
		e := tbl.Float(r, "extension_x")
		policy := tbl.Text(r, "policy")
		if policy == "local-only" {
			if e != 1 {
				t.Errorf("local extension %g != 1", e)
			}
			continue
		}
		if e <= 1 {
			t.Errorf("%s/%s: battery extension %g not above local", tbl.Text(r, "app"), policy, e)
		}
	}
}

func TestE6Shape(t *testing.T) {
	tables, err := E6DeadlineSlack(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	missOf := func(slack float64, policy string) float64 {
		return tbl.Float(rowOf(t, tbl, "slack_x", slack, "policy", policy), "miss")
	}
	// At generous slack everything converges to zero misses — the core
	// non-time-critical claim.
	for _, p := range []string{"edge-all", "cloud-all", "deadline-aware"} {
		if m := missOf(1, p); m != 0 {
			t.Errorf("%s misses %g at slack 1", p, m)
		}
		if m := missOf(10, p); m != 0 {
			t.Errorf("%s misses %g at slack 10", p, m)
		}
	}
	// At brutal slack everyone misses a lot.
	if m := missOf(0.0002, "cloud-all"); m < 0.5 {
		t.Errorf("cloud-all misses only %g at slack 0.0002", m)
	}
	// Deadline-aware never does meaningfully worse than cloud-all.
	for _, s := range []float64{0.01, 0.1, 1, 10} {
		if missOf(s, "deadline-aware") > missOf(s, "cloud-all")+0.1 {
			t.Errorf("deadline-aware much worse than cloud-all at slack %g", s)
		}
	}
}

func TestE7Shape(t *testing.T) {
	tables, err := E7CostCrossover(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	// Serverless cheapest at the lowest volume; not at the highest.
	if c := tbl.Text(0, "cheapest"); c != "serverless" {
		t.Errorf("lowest volume cheapest = %s", c)
	}
	if tbl.Text(tbl.Len()-1, "cheapest") == "serverless" {
		t.Error("serverless still cheapest at the highest volume")
	}
	// Serverless monthly cost grows with volume.
	prev := -1.0
	for _, v := range tbl.Column("serverless_usd") {
		if v < prev {
			t.Errorf("serverless monthly cost fell with volume: %v -> %v", prev, v)
		}
		prev = v
	}
}

func TestE8Shape(t *testing.T) {
	tables, err := E8Pipeline(Quick())
	if err != nil {
		t.Fatal(err)
	}
	totals := tables[1]
	for r := 0; r < totals.Len(); r++ {
		van, off := totals.Float(r, "vanilla_s"), totals.Float(r, "offload_s")
		if off <= van {
			t.Errorf("%s: offload pipeline not slower than vanilla", totals.Text(r, "app"))
		}
		if off > van*1.6 {
			t.Errorf("%s: offload overhead implausible: %v vs %v", totals.Text(r, "app"), off, van)
		}
	}
	rb := tables[2]
	verdict := func(r int) string {
		return rb.Text(r, "passed") + "/" + rb.Text(r, "rolled_back") + "/" + rb.Text(r, "released")
	}
	if v := verdict(0); v != "true/false/true" {
		t.Errorf("healthy round passed/rolled_back/released = %s", v)
	}
	if v := verdict(1); v != "false/true/false" {
		t.Errorf("regressed round passed/rolled_back/released = %s", v)
	}
}

func TestE9Shape(t *testing.T) {
	tables, err := E9Scalability(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if tbl.Len() < 3 {
		t.Fatalf("E9 has %d rows", tbl.Len())
	}
	prev := 0.0
	for r := 0; r < tbl.Len(); r++ {
		d := tbl.Float(r, "devices")
		if d <= prev {
			t.Errorf("device counts not increasing: %v after %v", d, prev)
		}
		prev = d
		if m := tbl.Float(r, "miss"); m > 0.2 {
			t.Errorf("fleet of %g misses %g of deadlines", d, m)
		}
	}
}

func TestE11Shape(t *testing.T) {
	tables, err := E11OffPeak(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	genSaving, tightShifted := math.NaN(), math.NaN()
	for r := 0; r < tbl.Len(); r++ {
		if tbl.Text(r, "shifting") != "true" {
			continue
		}
		slack, shifted := tbl.Float(r, "slack_x"), tbl.Float(r, "shifted")
		switch slack {
		case 24:
			genSaving = tbl.Float(r, "saving")
			if !(shifted >= 0.9) {
				t.Errorf("generous slack shifted only %g", shifted)
			}
		case 0.05:
			tightShifted = shifted
		}
		// The shifter must never cause more misses than the tight-deadline
		// baseline already has; in particular, at generous slack it must
		// stay at zero.
		if m := tbl.Float(r, "miss"); slack != 0.05 && m != 0 {
			t.Errorf("slack %g: shifting caused %g misses", slack, m)
		}
	}
	if !(genSaving >= 0.4) {
		t.Errorf("generous-slack saving %g below the 60%% discount's reach", genSaving)
	}
	if tightShifted != 0 {
		t.Errorf("tight slack shifted %g of tasks, want 0", tightShifted)
	}
}

func TestE12Shape(t *testing.T) {
	tables, err := E12Failures(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	failures := func(rate, attempts float64) float64 {
		return tbl.Float(rowOf(t, tbl, "failure_rate", rate, "retries", attempts), "task_failures")
	}
	for _, rate := range []float64{0.05, 0.2, 0.5} {
		bare, retried := failures(rate, 1), failures(rate, 5)
		if retried >= bare && bare > 0 {
			t.Errorf("rate %g: retries did not reduce failures (%g -> %g)", rate, bare, retried)
		}
		if retried > 0.05 {
			t.Errorf("rate %g: %g of tasks fail after 5 attempts", rate, retried)
		}
	}
	for r := 0; r < tbl.Len(); r++ {
		if m := tbl.Float(r, "miss"); m != 0 {
			t.Errorf("row %d: failures caused deadline misses (%g)", r, m)
		}
	}
}

func TestE13Shape(t *testing.T) {
	tables, err := E13DVFS(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	for _, a := range []string{"sci-batch", "report-gen"} {
		energy := func(mode string) float64 {
			return tbl.Float(rowOf(t, tbl, "app", a, "mode", mode), "task_mJ")
		}
		full, dvfs, cloud := energy("local-full-speed"), energy("local-dvfs"), energy("cloud")
		if !(cloud < dvfs && dvfs < full) {
			t.Errorf("%s: energy ordering violated: cloud %g, dvfs %g, full %g", a, cloud, dvfs, full)
		}
		// DVFS must not cause misses: it only stretches inside the budget.
		if m := tbl.Float(rowOf(t, tbl, "app", a, "mode", "local-dvfs"), "miss"); m != 0 {
			t.Errorf("%s: DVFS caused %g misses", a, m)
		}
	}
}

func TestE14Shape(t *testing.T) {
	tables, err := E14Bursts(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	p95 := func(arrivals, backend string) float64 {
		return tbl.Float(rowOf(t, tbl, "arrivals", arrivals, "backend", backend), "p95_s")
	}
	// Under bursts, the fixed VM's tail must be far worse than serverless;
	// the autoscaler lands in between.
	slBurst := p95("bursty", "serverless")
	fixedBurst := p95("bursty", "vm-fixed")
	autoBurst := p95("bursty", "vm-autoscaled")
	if fixedBurst < 3*slBurst {
		t.Errorf("fixed VM burst P95 (%g) not far above serverless (%g)", fixedBurst, slBurst)
	}
	if !(autoBurst < fixedBurst) {
		t.Errorf("autoscaler (%g) not better than fixed (%g) under bursts", autoBurst, fixedBurst)
	}
	// Serverless stays in the same regime regardless of arrival pattern.
	if slSteady := p95("steady", "serverless"); slBurst > 10*slSteady {
		t.Errorf("serverless tail degraded %gx under bursts", slBurst/slSteady)
	}
}

func TestE15Shape(t *testing.T) {
	tables, err := E15Granularity(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	for _, a := range []string{"ml-batch", "sci-batch", "report-gen"} {
		mono := rowOf(t, tbl, "app", a, "deployment", "monolithic")
		per := rowOf(t, tbl, "app", a, "deployment", "per-component")
		if n := tbl.Float(mono, "functions"); n != 1 {
			t.Errorf("%s: monolithic deployed %g functions", a, n)
		}
		if n := tbl.Float(per, "functions"); n < 2 {
			t.Errorf("%s: per-component deployed %g functions", a, n)
		}
		// Neither variant should dominate by more than 2x on money — the
		// "no cost cliff" claim.
		m, p := tbl.Float(mono, "run_usd"), tbl.Float(per, "run_usd")
		if p > 2*m || m > 2*p {
			t.Errorf("%s: granularity cost cliff: mono $%g vs per $%g", a, m, p)
		}
	}
}

func TestE16Shape(t *testing.T) {
	tables, err := E16Providers(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	ratioOf := func(profile string) float64 {
		return tbl.Float(rowOf(t, tbl, "profile", profile, "provider", "gcf-like"), "cost_ratio")
	}
	tiny := ratioOf("tiny-20ms")
	large := ratioOf("large-20s")
	// Coarse granularity hurts tiny tasks disproportionately.
	if tiny <= large {
		t.Errorf("granularity penalty not decreasing with size: tiny %gx vs large %gx", tiny, large)
	}
	if tiny < 1.2 {
		t.Errorf("tiny-task penalty %gx implausibly small", tiny)
	}
	if large > 1.5 {
		t.Errorf("large-task ratio %gx should approach the list-price gap", large)
	}
}

func TestE17Shape(t *testing.T) {
	tables, err := E17Resilience(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if tbl.Len() != 12 { // 3 burst lengths × 4 strategies
		t.Fatalf("E17 has %d rows, want 12", tbl.Len())
	}
	get := func(burst float64, strategy, col string) float64 {
		return tbl.Float(rowOf(t, tbl, "burst_s", burst, "strategy", strategy), col)
	}
	bursts := []float64{15, 60, 240}
	for _, b := range bursts {
		ff := get(b, "fail-fast", "task_fail")
		retry := get(b, "retry-only", "task_fail")
		brk := get(b, "brk+fallback", "task_fail")
		// Fail-fast loses tasks during every burst; retries never hurt.
		if ff <= 0 {
			t.Errorf("burst %g: fail-fast lost no tasks", b)
		}
		// Each cell draws its own workload stream, so allow a few points of
		// arrival noise; retries must never make things materially worse.
		if retry > ff+0.05 {
			t.Errorf("burst %g: retry-only (%g) worse than fail-fast (%g)", b, retry, ff)
		}
		// The headline claim: breaker+fallback rides out any burst length.
		if brk != 0 {
			t.Errorf("burst %g: brk+fallback lost %g of tasks", b, brk)
		}
		if get(b, "fail-fast", "fallbacks") != 0 {
			t.Errorf("burst %g: fail-fast recorded fallbacks", b)
		}
	}
	// Retry-only's ~62 s backoff horizon absorbs the short burst but not
	// the long one.
	if r := get(15, "retry-only", "task_fail"); r != 0 {
		t.Errorf("retry-only lost %g of tasks to a 15 s burst inside its horizon", r)
	}
	if r := get(240, "retry-only", "task_fail"); r < 0.2 {
		t.Errorf("retry-only lost only %g to a 240 s burst far beyond its horizon", r)
	}
	// The breaker must actually have rerouted during the sustained burst,
	// and the hedged strategy must actually have hedged.
	if get(240, "brk+fallback", "fallbacks") == 0 {
		t.Error("brk+fallback never rerouted during a 240 s burst")
	}
	hedgedTotal := 0.0
	for _, b := range bursts {
		hedgedTotal += get(b, "hedged", "hedges")
	}
	if hedgedTotal == 0 {
		t.Error("hedged strategy never launched a hedge")
	}
}

func TestE18Shape(t *testing.T) {
	tables, err := E18Attribution(Quick())
	if err != nil {
		t.Fatal(err) // E18 fails itself when an attribution check misses
	}
	if len(tables) != 3 {
		t.Fatalf("E18 produced %d tables, want 3", len(tables))
	}
	checks := tables[1]
	if checks.Len() != 4 {
		t.Fatalf("E18 ran %d checks, want 4", checks.Len())
	}
	for r := 0; r < checks.Len(); r++ {
		if checks.Text(r, "ok") != "yes" {
			t.Errorf("check %q failed: measured %s", checks.Text(r, "check"), checks.Text(r, "measured"))
		}
	}
	// The phase table must attribute cold starts in the cold cells and
	// show exec dominating the straggler cell's P95 band.
	phases := tables[0]
	rowOf(t, phases, "cell", "baseline", "phase", "cold_start")
	if v := phases.Float(rowOf(t, phases, "cell", "stragglers", "phase", "exec"), "share_p95"); v < 0.5 {
		t.Errorf("stragglers: exec carries only %g of the P95 band", v)
	}
}

func TestE10Shape(t *testing.T) {
	tables, err := E10PredictionError(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if v := tbl.Float(0, "rel_error"); v != 0 {
		t.Fatalf("first row is error %g, not the baseline", v)
	}
	if v := tbl.Float(0, "excess_cost"); v != 0 {
		t.Errorf("baseline excess cost %g != 0", v)
	}
	for r := 0; r < tbl.Len(); r++ {
		// Graceful degradation: errors must not blow up cost or misses.
		relErr := tbl.Float(r, "rel_error")
		if v := tbl.Float(r, "excess_cost"); v > 0.5 {
			t.Errorf("error %g: excess cost %g above 50%%", relErr, v)
		}
		if v := tbl.Float(r, "miss"); v > 0.1 {
			t.Errorf("error %g: miss rate %g above 10%%", relErr, v)
		}
	}
}

func TestE19Shape(t *testing.T) {
	tables, err := E19Adaptive(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("E19 produced %d tables, want 2", len(tables))
	}
	detail := tables[0]
	if want := 3 * 9; detail.Len() != want {
		t.Fatalf("detail table has %d rows, want %d (3 cells x 9 policies)", detail.Len(), want)
	}
	fired := false
	for r := 0; r < detail.Len(); r++ {
		policy, cell := detail.Text(r, "policy"), detail.Text(r, "cell")
		drift := detail.Float(r, "drift") // NaN when the policy has no adaptive layer
		adaptive := strings.HasPrefix(policy, "bandit")
		if adaptive && math.IsNaN(drift) {
			t.Errorf("adaptive row %s/%s reports no drift counter", cell, policy)
		}
		if !adaptive && !math.IsNaN(drift) {
			t.Errorf("static row %s/%s reports a drift counter", cell, policy)
		}
		if adaptive && cell == "outage" && drift > 0 {
			fired = true
		}
	}
	if !fired {
		t.Error("no adaptive policy saw the drift detector fire in the outage cell")
	}

	// The headline claim: each bandit's cumulative objective beats every
	// static baseline's, and stays within 25% regret of the per-cell
	// static-best oracle.
	summary := tables[1]
	bestStatic, worstBandit := math.Inf(1), math.Inf(-1)
	for r := 0; r < summary.Len(); r++ {
		policy, total := summary.Text(r, "policy"), summary.Float(r, "total")
		switch {
		case strings.HasPrefix(policy, "bandit"):
			worstBandit = math.Max(worstBandit, total)
			if v := summary.Float(r, "regret"); v > 0.25 {
				t.Errorf("%s regret %g above the 25%% bound", policy, v)
			}
		case policy == "oracle(static-best)":
		default:
			bestStatic = math.Min(bestStatic, total)
		}
	}
	if worstBandit >= bestStatic {
		t.Errorf("bandit total %.3f does not beat best static %.3f", worstBandit, bestStatic)
	}
}

func TestE20Shape(t *testing.T) {
	tables, err := E20Failover(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("E20 produced %d tables, want 1", len(tables))
	}
	tbl := tables[0]
	if tbl.Len() != 12 { // 3 scenarios × 4 strategies
		t.Fatalf("E20 has %d rows, want 12", tbl.Len())
	}
	get := func(scenario, strategy, col string) float64 {
		return tbl.Float(rowOf(t, tbl, "scenario", scenario, "strategy", strategy), col)
	}

	// The headline claim: in the single-region outage, fail-fast loses a
	// visible share of the workload while the ladder posture loses none —
	// the incident becomes shed/queued work instead of failures.
	if ff := get("region-outage", "fail-fast", "task_fail"); ff <= 0.05 {
		t.Errorf("fail-fast lost only %g in the region outage, want > 5%%", ff)
	}
	if v := get("region-outage", "ladder", "task_fail"); v != 0 {
		t.Errorf("ladder posture lost %g in the region outage, want 0", v)
	}
	if v := get("region-outage", "ladder", "lost"); v != 0 {
		t.Errorf("ladder posture dropped %g parked tasks, want 0", v)
	}

	// Recovery-time accounting: the adaptive posture's canary probes must
	// observe the recovery — MTTR positive and within 2× of the outage
	// window's end.
	mttr := get("region-outage", "adaptive", "mttr_s")
	if math.IsNaN(mttr) {
		t.Fatal("adaptive posture reports no MTTR for the region outage")
	}
	if bound := 2 * float64(e20OutageStart.Add(e20OutageLen)); mttr <= 0 || mttr > bound {
		t.Errorf("adaptive MTTR %.3gs outside (0, %.3gs]", mttr, bound)
	}

	// Failover postures never lose tasks in any drill: re-homing, the
	// ladder and last-resort localization absorb every incident here.
	for r := 0; r < tbl.Len(); r++ {
		if tbl.Text(r, "strategy") == "fail-fast" {
			continue
		}
		if v := tbl.Float(r, "task_fail"); v != 0 {
			t.Errorf("%s/%s failed %g of tasks, want 0", tbl.Text(r, "scenario"), tbl.Text(r, "strategy"), v)
		}
	}
}

func TestE21Shape(t *testing.T) {
	tables, err := E21FlashCrowd(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("E21 produced %d tables, want 1", len(tables))
	}
	tbl := tables[0]
	if tbl.Len() != 1 {
		t.Fatalf("E21 has %d rows, want 1", tbl.Len())
	}
	// 50× the E9 quick fleet, all tasks accounted for.
	if v := tbl.Float(0, "devices"); v != 2500 {
		t.Errorf("devices = %g, want 2500", v)
	}
	if v := tbl.Float(0, "tasks"); v != 10000 {
		t.Errorf("tasks = %g, want 2500 devices x 4", v)
	}
	// The flash crowd is absorbed: generous non-time-critical deadlines
	// keep the miss rate at zero even with every UE stampeding at once.
	if v := tbl.Float(0, "miss"); v != 0 {
		t.Errorf("miss rate %g, want 0", v)
	}
	// The barrier actually ran epochs (idle-skip keeps it near the busy
	// windows, but a flash crowd plus calm tails spans many).
	if v := tbl.Float(0, "windows"); v <= 10 {
		t.Errorf("only %g executed windows, want a real epoch stream", v)
	}
}

// TestE21ShardCountInvariance is the experiment-level determinism gate:
// the table must hold the same values, bit for bit, and render the same
// text and CSV whatever the shard count, including the serial reference.
func TestE21ShardCountInvariance(t *testing.T) {
	render := func(shards int) (text, digest string) {
		s := Quick()
		s.Shards = shards
		tables, err := E21FlashCrowd(s)
		if err != nil {
			t.Fatal(err)
		}
		return tables[0].String() + "\n" + tables[0].CSV(), tablesDigest(tables)
	}
	ref, refDigest := render(1)
	for _, shards := range []int{2, 4, 7} {
		got, digest := render(shards)
		if got != ref {
			t.Errorf("shards=%d output diverged from serial:\n%s\nvs\n%s", shards, got, ref)
		}
		if digest != refDigest {
			t.Errorf("shards=%d values differ from serial at full precision", shards)
		}
	}
}

func TestE22Shape(t *testing.T) {
	tables, err := E22DAGPlacement(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("E22 produced %d tables, want 1", len(tables))
	}
	tbl := tables[0]
	if tbl.Len() != 6 {
		t.Fatalf("E22 has %d rows, want 3 shapes x 2 placements", tbl.Len())
	}
	mk := map[string]float64{} // "shape/placement" → mean makespan
	for r := 0; r < tbl.Len(); r++ {
		key := tbl.Text(r, "shape") + "/" + tbl.Text(r, "placement")
		meanMk := tbl.Float(r, "mean_mk_s")
		mk[key] = meanMk
		if tbl.Float(r, "fail") != 0 {
			t.Errorf("%s: failed jobs in a healthy run", key)
		}
		if meanMk <= 0 {
			t.Errorf("%s: non-positive makespan", key)
		}
		// The critical-path partition means crit_s can never exceed the
		// makespan it decomposes.
		if c := tbl.Float(r, "crit_s"); c > meanMk+1e-9 {
			t.Errorf("%s: critical path %.3f exceeds makespan %.3f", key, c, meanMk)
		}
		// The serial chain has no off-path nodes, so no slack.
		if v := tbl.Float(r, "slack_s"); tbl.Text(r, "shape") == "narrow" && v != 0 {
			t.Errorf("%s: non-zero slack %g on a chain", key, v)
		}
	}
	// The headline claim: on the wide fork-join, upward-rank placement
	// beats precedence-oblivious release on mean makespan.
	if mk["wide/rank"] >= mk["wide/oblivious"] {
		t.Errorf("wide: rank %.3fs not better than oblivious %.3fs",
			mk["wide/rank"], mk["wide/oblivious"])
	}
}
