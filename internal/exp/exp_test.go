package exp

import (
	"strconv"
	"strings"
	"testing"

	"offload/internal/metrics"
)

// rows parses a table's CSV back into cells for shape assertions.
func rows(t *testing.T, tbl *metrics.Table) (header []string, data [][]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(tbl.CSV()), "\n")
	if len(lines) < 2 {
		t.Fatalf("table %q has no data rows", tbl.Title())
	}
	header = strings.Split(lines[0], ",")
	for _, line := range lines[1:] {
		data = append(data, strings.Split(line, ","))
	}
	return header, data
}

// col returns the index of a named column.
func col(t *testing.T, header []string, name string) int {
	t.Helper()
	for i, h := range header {
		if h == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, header)
	return -1
}

// num parses a cell that may carry $, %, s, J or x suffixes.
func num(t *testing.T, cell string) float64 {
	t.Helper()
	c := strings.TrimSpace(cell)
	c = strings.TrimPrefix(c, "$")
	c = strings.TrimSuffix(c, "%")
	c = strings.TrimSuffix(c, "x")
	c = strings.TrimSuffix(c, "s")
	c = strings.TrimSuffix(c, "mJ")
	c = strings.TrimSuffix(c, "J")
	v, err := strconv.ParseFloat(c, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
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
	header, data := rows(t, tables[0])
	if len(data) != 25 { // 5 apps × 5 policies
		t.Fatalf("E1 has %d rows, want 25", len(data))
	}
	app := col(t, header, "app")
	policy := col(t, header, "policy")
	mean := col(t, header, "mean_s")
	taskUSD := col(t, header, "task_usd")
	infra := col(t, header, "infra_usd")
	energy := col(t, header, "task_mJ")

	byKey := map[string][]string{}
	for _, r := range data {
		byKey[r[app]+"/"+r[policy]] = r
	}
	for _, a := range []string{"sci-batch", "report-gen", "ml-batch"} {
		local := byKey[a+"/local-only"]
		cloud := byKey[a+"/cloud-all"]
		edge := byKey[a+"/edge-all"]
		aware := byKey[a+"/deadline-aware"]
		// The thesis: cloud offloading beats local on completion time for
		// compute-heavy apps, at micro-dollar cost and far less energy.
		if num(t, cloud[mean]) >= num(t, local[mean]) {
			t.Errorf("%s: cloud (%s) not faster than local (%s)", a, cloud[mean], local[mean])
		}
		if jEnergy(t, cloud[energy]) >= jEnergy(t, local[energy]) {
			t.Errorf("%s: cloud energy not below local", a)
		}
		// Local pays no money; edge pays no marginal money but carries the
		// infrastructure column; cloud carries no infrastructure.
		if num(t, local[taskUSD]) != 0 || num(t, local[infra]) != 0 {
			t.Errorf("%s: local-only costs money", a)
		}
		if num(t, edge[infra]) <= 0 {
			t.Errorf("%s: edge has no infrastructure cost", a)
		}
		if num(t, cloud[infra]) != 0 {
			t.Errorf("%s: cloud-all charged infrastructure", a)
		}
		if num(t, aware[infra]) != 0 {
			t.Errorf("%s: deadline-aware charged infrastructure", a)
		}
	}
}

// jEnergy normalises the mJ/J formatting to joules.
func jEnergy(t *testing.T, cell string) float64 {
	t.Helper()
	if strings.HasSuffix(cell, "mJ") {
		return num(t, cell) / 1000
	}
	return num(t, cell)
}

func TestE2Shape(t *testing.T) {
	tables, err := E2MemorySweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	_, curve := rows(t, tables[0])
	if len(curve) < 20 {
		t.Fatalf("E2 curve has %d rows", len(curve))
	}
	header, summary := rows(t, tables[1])
	chosenMB := col(t, header, "chosen_mb")
	optimumMB := col(t, header, "optimum_mb")
	chosenUSD := col(t, header, "chosen_usd")
	optimumUSD := col(t, header, "optimum_usd")
	for _, r := range summary {
		if r[chosenMB] != r[optimumMB] {
			t.Errorf("profile %s: allocator picked %s MB, optimum %s MB", r[0], r[chosenMB], r[optimumMB])
		}
		if num(t, r[chosenUSD]) > num(t, r[optimumUSD])*1.0001 {
			t.Errorf("profile %s: chosen cost above optimum", r[0])
		}
	}
}

func TestE3Shape(t *testing.T) {
	tables, err := E3Partition(Quick())
	if err != nil {
		t.Fatal(err)
	}
	header, data := rows(t, tables[0])
	gap := col(t, header, "mincut_gap")
	mc := col(t, header, "min_cut")
	local := col(t, header, "all_local")
	remote := col(t, header, "all_remote")
	greedy := col(t, header, "greedy")
	for _, r := range data {
		if num(t, r[gap]) > 0.01 {
			t.Errorf("graph %s: min-cut gap %s above 0.01%%", r[0], r[gap])
		}
		if num(t, r[mc]) > num(t, r[local])+1e-12 || num(t, r[mc]) > num(t, r[remote])+1e-12 {
			t.Errorf("graph %s: min-cut worse than a trivial assignment", r[0])
		}
		if num(t, r[greedy]) > num(t, r[local])+1e-12 {
			t.Errorf("graph %s: greedy worse than all-local", r[0])
		}
	}
}

func TestE4Shape(t *testing.T) {
	tables, err := E4ColdStart(Quick())
	if err != nil {
		t.Fatal(err)
	}
	header, data := rows(t, tables[0])
	rate := col(t, header, "rate_per_s")
	ka := col(t, header, "keepalive_s")
	cold := col(t, header, "cold_frac")
	for _, r := range data {
		if r[ka] == "0" && num(t, r[cold]) != 100 {
			t.Errorf("keep-alive 0 with cold fraction %s", r[cold])
		}
	}
	// At a fixed moderate rate, cold fraction must fall with keep-alive.
	var last float64 = 101
	for _, r := range data {
		if r[rate] != "0.02" {
			continue
		}
		c := num(t, r[cold])
		if c > last+1e-9 {
			t.Errorf("cold fraction rose with keep-alive at rate 0.02: %v -> %v", last, c)
		}
		last = c
	}
	// Batching: cold fraction strictly falls as batch size grows.
	bh, bdata := rows(t, tables[1])
	bcold := col(t, bh, "cold_frac")
	prev := 101.0
	for _, r := range bdata {
		c := num(t, r[bcold])
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
	header, data := rows(t, tables[0])
	policy := col(t, header, "policy")
	ext := col(t, header, "extension_x")
	for _, r := range data {
		e := num(t, r[ext])
		if r[policy] == "local-only" {
			if e != 1 {
				t.Errorf("local extension %g != 1", e)
			}
			continue
		}
		if e <= 1 {
			t.Errorf("%s/%s: battery extension %g not above local", r[0], r[policy], e)
		}
	}
}

func TestE6Shape(t *testing.T) {
	tables, err := E6DeadlineSlack(Quick())
	if err != nil {
		t.Fatal(err)
	}
	header, data := rows(t, tables[0])
	slack := col(t, header, "slack_x")
	policy := col(t, header, "policy")
	miss := col(t, header, "miss")
	missOf := func(s, p string) float64 {
		for _, r := range data {
			if r[slack] == s && r[policy] == p {
				return num(t, r[miss])
			}
		}
		t.Fatalf("no row %s/%s", s, p)
		return 0
	}
	// At generous slack everything converges to zero misses — the core
	// non-time-critical claim.
	for _, p := range []string{"edge-all", "cloud-all", "deadline-aware"} {
		if m := missOf("1", p); m != 0 {
			t.Errorf("%s misses %g%% at slack 1", p, m)
		}
		if m := missOf("10", p); m != 0 {
			t.Errorf("%s misses %g%% at slack 10", p, m)
		}
	}
	// At brutal slack everyone misses a lot.
	if m := missOf("0.0002", "cloud-all"); m < 50 {
		t.Errorf("cloud-all misses only %g%% at slack 0.0002", m)
	}
	// Deadline-aware never does meaningfully worse than cloud-all.
	for _, s := range []string{"0.01", "0.1", "1", "10"} {
		if missOf(s, "deadline-aware") > missOf(s, "cloud-all")+10 {
			t.Errorf("deadline-aware much worse than cloud-all at slack %s", s)
		}
	}
}

func TestE7Shape(t *testing.T) {
	tables, err := E7CostCrossover(Quick())
	if err != nil {
		t.Fatal(err)
	}
	header, data := rows(t, tables[0])
	cheapest := col(t, header, "cheapest")
	// Serverless cheapest at the lowest volume; not at the highest.
	if data[0][cheapest] != "serverless" {
		t.Errorf("lowest volume cheapest = %s", data[0][cheapest])
	}
	if last := data[len(data)-1][cheapest]; last == "serverless" {
		t.Error("serverless still cheapest at the highest volume")
	}
	// Serverless monthly cost grows with volume.
	sl := col(t, header, "serverless_usd")
	prev := -1.0
	for _, r := range data {
		v := num(t, r[sl])
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
	_, totals := rows(t, tables[1])
	header := []string{"app", "vanilla_s", "offload_s", "overhead"}
	for _, r := range totals {
		van := num(t, r[1])
		off := num(t, r[2])
		if off <= van {
			t.Errorf("%s: offload pipeline not slower than vanilla", r[0])
		}
		if off > van*1.6 {
			t.Errorf("%s: offload overhead implausible: %v vs %v", r[0], off, van)
		}
	}
	_ = header
	rh, rbRows := rows(t, tables[2])
	passed := col(t, rh, "passed")
	rolled := col(t, rh, "rolled_back")
	released := col(t, rh, "released")
	if rbRows[0][passed] != "true" || rbRows[0][rolled] != "false" || rbRows[0][released] != "true" {
		t.Errorf("healthy round wrong: %v", rbRows[0])
	}
	if rbRows[1][passed] != "false" || rbRows[1][rolled] != "true" || rbRows[1][released] != "false" {
		t.Errorf("regressed round wrong: %v", rbRows[1])
	}
}

func TestE9Shape(t *testing.T) {
	tables, err := E9Scalability(Quick())
	if err != nil {
		t.Fatal(err)
	}
	header, data := rows(t, tables[0])
	devices := col(t, header, "devices")
	miss := col(t, header, "miss")
	if len(data) < 3 {
		t.Fatalf("E9 has %d rows", len(data))
	}
	prev := 0.0
	for _, r := range data {
		d := num(t, r[devices])
		if d <= prev {
			t.Errorf("device counts not increasing: %v after %v", d, prev)
		}
		prev = d
		if num(t, r[miss]) > 20 {
			t.Errorf("fleet of %s misses %s of deadlines", r[devices], r[miss])
		}
	}
}

func TestE11Shape(t *testing.T) {
	tables, err := E11OffPeak(Quick())
	if err != nil {
		t.Fatal(err)
	}
	header, data := rows(t, tables[0])
	slack := col(t, header, "slack_x")
	shifting := col(t, header, "shifting")
	shifted := col(t, header, "shifted")
	saving := col(t, header, "saving")
	miss := col(t, header, "miss")
	var genSaving, tightShifted float64
	tightShifted = -1
	for _, r := range data {
		if r[shifting] != "true" {
			continue
		}
		switch r[slack] {
		case "24":
			genSaving = num(t, r[saving])
			if num(t, r[shifted]) < 90 {
				t.Errorf("generous slack shifted only %s", r[shifted])
			}
		case "0.05":
			tightShifted = num(t, r[shifted])
		}
		// The shifter must never cause more misses than the tight-deadline
		// baseline already has; in particular, at generous slack it must
		// stay at zero.
		if r[slack] != "0.05" && num(t, r[miss]) != 0 {
			t.Errorf("slack %s: shifting caused %s misses", r[slack], r[miss])
		}
	}
	if genSaving < 40 {
		t.Errorf("generous-slack saving %g%% below the 60%% discount's reach", genSaving)
	}
	if tightShifted != 0 {
		t.Errorf("tight slack shifted %g%% of tasks, want 0", tightShifted)
	}
}

func TestE12Shape(t *testing.T) {
	tables, err := E12Failures(Quick())
	if err != nil {
		t.Fatal(err)
	}
	header, data := rows(t, tables[0])
	rate := col(t, header, "failure_rate")
	retries := col(t, header, "retries")
	failures := col(t, header, "task_failures")
	miss := col(t, header, "miss")
	get := func(r, a string) []string {
		for _, row := range data {
			if row[rate] == r && row[retries] == a {
				return row
			}
		}
		t.Fatalf("no row %s/%s", r, a)
		return nil
	}
	for _, r := range []string{"0.05", "0.2", "0.5"} {
		bare := num(t, get(r, "1")[failures])
		retried := num(t, get(r, "5")[failures])
		if retried >= bare && bare > 0 {
			t.Errorf("rate %s: retries did not reduce failures (%g -> %g)", r, bare, retried)
		}
		if retried > 5 {
			t.Errorf("rate %s: %g%% failures survive 5 attempts", r, retried)
		}
	}
	for _, row := range data {
		if num(t, row[miss]) != 0 {
			t.Errorf("failures caused deadline misses: %v", row)
		}
	}
}

func TestE13Shape(t *testing.T) {
	tables, err := E13DVFS(Quick())
	if err != nil {
		t.Fatal(err)
	}
	header, data := rows(t, tables[0])
	app := col(t, header, "app")
	mode := col(t, header, "mode")
	miss := col(t, header, "miss")
	energy := col(t, header, "task_mJ")
	byKey := map[string][]string{}
	for _, r := range data {
		byKey[r[app]+"/"+r[mode]] = r
	}
	for _, a := range []string{"sci-batch", "report-gen"} {
		full := jEnergy(t, byKey[a+"/local-full-speed"][energy])
		dvfs := jEnergy(t, byKey[a+"/local-dvfs"][energy])
		cloud := jEnergy(t, byKey[a+"/cloud"][energy])
		if !(cloud < dvfs && dvfs < full) {
			t.Errorf("%s: energy ordering violated: cloud %g, dvfs %g, full %g", a, cloud, dvfs, full)
		}
		// DVFS must not cause misses: it only stretches inside the budget.
		if m := num(t, byKey[a+"/local-dvfs"][miss]); m != 0 {
			t.Errorf("%s: DVFS caused %g%% misses", a, m)
		}
	}
}

func TestE14Shape(t *testing.T) {
	tables, err := E14Bursts(Quick())
	if err != nil {
		t.Fatal(err)
	}
	header, data := rows(t, tables[0])
	arrivals := col(t, header, "arrivals")
	backend := col(t, header, "backend")
	p95 := col(t, header, "p95_s")
	get := func(a, b string) []string {
		for _, r := range data {
			if r[arrivals] == a && r[backend] == b {
				return r
			}
		}
		t.Fatalf("no row %s/%s", a, b)
		return nil
	}
	// Under bursts, the fixed VM's tail must be far worse than serverless;
	// the autoscaler lands in between.
	slBurst := num(t, get("bursty", "serverless")[p95])
	fixedBurst := num(t, get("bursty", "vm-fixed")[p95])
	autoBurst := num(t, get("bursty", "vm-autoscaled")[p95])
	if fixedBurst < 3*slBurst {
		t.Errorf("fixed VM burst P95 (%g) not far above serverless (%g)", fixedBurst, slBurst)
	}
	if !(autoBurst < fixedBurst) {
		t.Errorf("autoscaler (%g) not better than fixed (%g) under bursts", autoBurst, fixedBurst)
	}
	// Serverless stays in the same regime regardless of arrival pattern.
	slSteady := num(t, get("steady", "serverless")[p95])
	if slBurst > 10*slSteady {
		t.Errorf("serverless tail degraded %gx under bursts", slBurst/slSteady)
	}
}

func TestE15Shape(t *testing.T) {
	tables, err := E15Granularity(Quick())
	if err != nil {
		t.Fatal(err)
	}
	header, data := rows(t, tables[0])
	app := col(t, header, "app")
	deployment := col(t, header, "deployment")
	fns := col(t, header, "functions")
	runUSD := col(t, header, "run_usd")
	byKey := map[string][]string{}
	for _, r := range data {
		byKey[r[app]+"/"+r[deployment]] = r
	}
	for _, a := range []string{"ml-batch", "sci-batch", "report-gen"} {
		mono := byKey[a+"/monolithic"]
		per := byKey[a+"/per-component"]
		if mono == nil || per == nil {
			t.Fatalf("missing rows for %s", a)
		}
		if mono[fns] != "1" {
			t.Errorf("%s: monolithic deployed %s functions", a, mono[fns])
		}
		if num(t, per[fns]) < 2 {
			t.Errorf("%s: per-component deployed %s functions", a, per[fns])
		}
		// Neither variant should dominate by more than 2x on money — the
		// "no cost cliff" claim.
		m, p := num(t, mono[runUSD]), num(t, per[runUSD])
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
	header, data := rows(t, tables[0])
	profile := col(t, header, "profile")
	provider := col(t, header, "provider")
	ratio := col(t, header, "cost_ratio")
	ratioOf := func(p string) float64 {
		for _, r := range data {
			if r[profile] == p && r[provider] == "gcf-like" {
				return num(t, r[ratio])
			}
		}
		t.Fatalf("no gcf row for %s", p)
		return 0
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
	header, data := rows(t, tables[0])
	if len(data) != 12 { // 3 burst lengths × 4 strategies
		t.Fatalf("E17 has %d rows, want 12", len(data))
	}
	burst := col(t, header, "burst_s")
	strategy := col(t, header, "strategy")
	fail := col(t, header, "task_fail")
	fallbacks := col(t, header, "fallbacks")
	hedges := col(t, header, "hedges")
	get := func(b, s string) []string {
		for _, r := range data {
			if r[burst] == b && r[strategy] == s {
				return r
			}
		}
		t.Fatalf("no row %s/%s", b, s)
		return nil
	}
	for _, b := range []string{"15", "60", "240"} {
		ff := num(t, get(b, "fail-fast")[fail])
		retry := num(t, get(b, "retry-only")[fail])
		brk := num(t, get(b, "brk+fallback")[fail])
		// Fail-fast loses tasks during every burst; retries never hurt.
		if ff <= 0 {
			t.Errorf("burst %s: fail-fast lost no tasks", b)
		}
		// Each cell draws its own workload stream, so allow a few points of
		// arrival noise; retries must never make things materially worse.
		if retry > ff+5 {
			t.Errorf("burst %s: retry-only (%g%%) worse than fail-fast (%g%%)", b, retry, ff)
		}
		// The headline claim: breaker+fallback rides out any burst length.
		if brk != 0 {
			t.Errorf("burst %s: brk+fallback lost %g%% of tasks", b, brk)
		}
		if num(t, get(b, "fail-fast")[fallbacks]) != 0 {
			t.Errorf("burst %s: fail-fast recorded fallbacks", b)
		}
	}
	// Retry-only's ~62 s backoff horizon absorbs the short burst but not
	// the long one.
	if r := num(t, get("15", "retry-only")[fail]); r != 0 {
		t.Errorf("retry-only lost %g%% of tasks to a 15 s burst inside its horizon", r)
	}
	if r := num(t, get("240", "retry-only")[fail]); r < 20 {
		t.Errorf("retry-only lost only %g%% to a 240 s burst far beyond its horizon", r)
	}
	// The breaker must actually have rerouted during the sustained burst,
	// and the hedged strategy must actually have hedged.
	if num(t, get("240", "brk+fallback")[fallbacks]) == 0 {
		t.Error("brk+fallback never rerouted during a 240 s burst")
	}
	hedgedTotal := 0.0
	for _, b := range []string{"15", "60", "240"} {
		hedgedTotal += num(t, get(b, "hedged")[hedges])
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
	header, data := rows(t, tables[1])
	ok := col(t, header, "ok")
	if len(data) != 4 {
		t.Fatalf("E18 ran %d checks, want 4", len(data))
	}
	for _, r := range data {
		if r[ok] != "yes" {
			t.Errorf("check %q failed: %v", r[0], r)
		}
	}
	// The phase table must attribute cold starts in the cold cells and
	// show exec dominating the straggler cell's P95 band.
	ph, pdata := rows(t, tables[0])
	cell := col(t, ph, "cell")
	phase := col(t, ph, "phase")
	p95 := col(t, ph, "share_p95")
	seenCold := false
	for _, r := range pdata {
		if r[cell] == "baseline" && r[phase] == "cold_start" {
			seenCold = true
		}
		if r[cell] == "stragglers" && r[phase] == "exec" && num(t, r[p95]) < 50 {
			t.Errorf("stragglers: exec carries only %s of the P95 band", r[p95])
		}
	}
	if !seenCold {
		t.Error("baseline cell attributed no cold_start time")
	}
}

func TestE10Shape(t *testing.T) {
	tables, err := E10PredictionError(Quick())
	if err != nil {
		t.Fatal(err)
	}
	header, data := rows(t, tables[0])
	relErr := col(t, header, "rel_error")
	miss := col(t, header, "miss")
	excess := col(t, header, "excess_cost")
	if data[0][relErr] != "0" {
		t.Fatalf("first row not the baseline: %v", data[0])
	}
	if num(t, data[0][excess]) != 0 {
		t.Errorf("baseline excess cost %s != 0", data[0][excess])
	}
	for _, r := range data {
		// Graceful degradation: errors must not blow up cost or misses.
		if num(t, r[excess]) > 50 {
			t.Errorf("error %s: excess cost %s above 50%%", r[relErr], r[excess])
		}
		if num(t, r[miss]) > 10 {
			t.Errorf("error %s: miss rate %s above 10%%", r[relErr], r[miss])
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
	header, data := rows(t, tables[0])
	if want := 3 * 9; len(data) != want {
		t.Fatalf("detail table has %d rows, want %d (3 cells x 9 policies)", len(data), want)
	}
	policy := col(t, header, "policy")
	drift := col(t, header, "drift")
	cell := col(t, header, "cell")
	fired := false
	for _, r := range data {
		adaptive := strings.HasPrefix(r[policy], "bandit")
		if adaptive && r[drift] == "-" {
			t.Errorf("adaptive row %v reports no drift counter", r)
		}
		if !adaptive && r[drift] != "-" {
			t.Errorf("static row %v reports a drift counter", r)
		}
		if adaptive && r[cell] == "outage" && num(t, r[drift]) > 0 {
			fired = true
		}
	}
	if !fired {
		t.Error("no adaptive policy saw the drift detector fire in the outage cell")
	}

	// The headline claim: each bandit's cumulative objective beats every
	// static baseline's, and stays within 25% regret of the per-cell
	// static-best oracle.
	sHeader, sData := rows(t, tables[1])
	total := col(t, sHeader, "total")
	regret := col(t, sHeader, "regret")
	bestStatic, worstBandit := -1.0, -1.0
	for _, r := range sData {
		switch {
		case strings.HasPrefix(r[policy], "bandit"):
			if v := num(t, r[total]); v > worstBandit {
				worstBandit = v
			}
			if v := num(t, r[regret]); v > 25 {
				t.Errorf("%s regret %s above the 25%% bound", r[policy], r[regret])
			}
		case r[policy] == "oracle(static-best)":
		default:
			if v := num(t, r[total]); bestStatic < 0 || v < bestStatic {
				bestStatic = v
			}
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
	header, data := rows(t, tables[0])
	if len(data) != 12 { // 3 scenarios × 4 strategies
		t.Fatalf("E20 has %d rows, want 12", len(data))
	}
	scenario := col(t, header, "scenario")
	strategy := col(t, header, "strategy")
	fail := col(t, header, "task_fail")
	lost := col(t, header, "lost")
	mttr := col(t, header, "mttr_s")
	get := func(sc, st string) []string {
		for _, r := range data {
			if r[scenario] == sc && r[strategy] == st {
				return r
			}
		}
		t.Fatalf("no row %s/%s", sc, st)
		return nil
	}

	// The headline claim: in the single-region outage, fail-fast loses a
	// visible share of the workload while the ladder posture loses none —
	// the incident becomes shed/queued work instead of failures.
	if ff := num(t, get("region-outage", "fail-fast")[fail]); ff <= 5 {
		t.Errorf("fail-fast lost only %.1f%% in the region outage, want > 5%%", ff)
	}
	ladder := get("region-outage", "ladder")
	if v := num(t, ladder[fail]); v != 0 {
		t.Errorf("ladder posture lost %.1f%% in the region outage, want 0%%", v)
	}
	if ladder[lost] != "0" {
		t.Errorf("ladder posture dropped %s parked tasks, want 0", ladder[lost])
	}

	// Recovery-time accounting: the adaptive posture's canary probes must
	// observe the recovery — MTTR positive and within 2× of the outage
	// window's end.
	adaptive := get("region-outage", "adaptive")
	if adaptive[mttr] == "-" {
		t.Fatal("adaptive posture reports no MTTR for the region outage")
	}
	bound := 2 * float64(e20OutageStart.Add(e20OutageLen))
	if v := num(t, adaptive[mttr]); v <= 0 || v > bound {
		t.Errorf("adaptive MTTR %.3gs outside (0, %.3gs]", v, bound)
	}

	// Failover postures never lose tasks in any drill: re-homing, the
	// ladder and last-resort localization absorb every incident here.
	for _, r := range data {
		if r[strategy] == "fail-fast" {
			continue
		}
		if v := num(t, r[fail]); v != 0 {
			t.Errorf("%s/%s failed %.1f%% of tasks, want 0%%", r[scenario], r[strategy], v)
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
	header, data := rows(t, tables[0])
	if len(data) != 1 {
		t.Fatalf("E21 has %d rows, want 1", len(data))
	}
	r := data[0]
	devices := col(t, header, "devices")
	tasks := col(t, header, "tasks")
	windows := col(t, header, "windows")
	miss := col(t, header, "miss")
	// 50× the E9 quick fleet, all tasks accounted for.
	if r[devices] != "2500" {
		t.Errorf("devices = %s, want 2500", r[devices])
	}
	if r[tasks] != "10000" {
		t.Errorf("tasks = %s, want 2500 devices x 4", r[tasks])
	}
	// The flash crowd is absorbed: generous non-time-critical deadlines
	// keep the miss rate at zero even with every UE stampeding at once.
	if v := num(t, r[miss]); v != 0 {
		t.Errorf("miss rate %.2f%%, want 0%%", v)
	}
	// The barrier actually ran epochs (idle-skip keeps it near the busy
	// windows, but a flash crowd plus calm tails spans many).
	if v := num(t, r[windows]); v <= 10 {
		t.Errorf("only %.0f executed windows, want a real epoch stream", v)
	}
}

// TestE21ShardCountInvariance is the experiment-level determinism gate:
// the full rendered table (and its CSV) must be byte-identical whatever
// the shard count, including the serial reference.
func TestE21ShardCountInvariance(t *testing.T) {
	render := func(shards int) string {
		s := Quick()
		s.Shards = shards
		tables, err := E21FlashCrowd(s)
		if err != nil {
			t.Fatal(err)
		}
		return tables[0].String() + "\n" + tables[0].CSV()
	}
	ref := render(1)
	for _, shards := range []int{2, 4, 7} {
		if got := render(shards); got != ref {
			t.Errorf("shards=%d output diverged from serial:\n%s\nvs\n%s", shards, got, ref)
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
	header, data := rows(t, tables[0])
	if len(data) != 6 {
		t.Fatalf("E22 has %d rows, want 3 shapes x 2 placements", len(data))
	}
	shape := col(t, header, "shape")
	placement := col(t, header, "placement")
	meanMk := col(t, header, "mean_mk_s")
	critS := col(t, header, "crit_s")
	slack := col(t, header, "slack_s")
	fail := col(t, header, "fail")

	mk := map[string]float64{} // "shape/placement" → mean makespan
	for _, r := range data {
		key := r[shape] + "/" + r[placement]
		mk[key] = num(t, r[meanMk])
		if num(t, r[fail]) != 0 {
			t.Errorf("%s: failed jobs in a healthy run", key)
		}
		if num(t, r[meanMk]) <= 0 {
			t.Errorf("%s: non-positive makespan", key)
		}
		// The critical-path partition means crit_s can never exceed the
		// makespan it decomposes.
		if c := num(t, r[critS]); c > num(t, r[meanMk])+1e-9 {
			t.Errorf("%s: critical path %.3f exceeds makespan %.3f", key, c, num(t, r[meanMk]))
		}
		// The serial chain has no off-path nodes, so no slack.
		if r[shape] == "narrow" {
			if v := num(t, r[slack]); v != 0 {
				t.Errorf("narrow/%s: non-zero slack %.3f on a chain", r[placement], v)
			}
		}
	}
	// The headline claim: on the wide fork-join, upward-rank placement
	// beats precedence-oblivious release on mean makespan.
	if mk["wide/rank"] >= mk["wide/oblivious"] {
		t.Errorf("wide: rank %.3fs not better than oblivious %.3fs",
			mk["wide/rank"], mk["wide/oblivious"])
	}
}
