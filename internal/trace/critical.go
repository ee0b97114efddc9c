package trace

import (
	"fmt"
	"math"
	"sort"

	"offload/internal/metrics"
)

// Phases lists the critical-path phase names in canonical order. Every
// second of a task's completion time is attributed to exactly one of
// these.
var Phases = []string{
	PhaseSubmit, PhaseUplink, PhaseQueue, PhaseColdStart,
	PhaseExec, PhaseDownlink, PhaseBackoff, PhaseOther,
}

// TaskPath is one task's critical-path decomposition: for every instant
// of [Started, Finished], the phase of the attempt that was determining
// the completion time at that instant.
//
// The critical path is extracted backwards from the attempt that decided
// the task (the winner, or the terminal failure): its phases cover the
// window back to its launch; before that, the attempt that was in flight
// when it launched (the primary a hedge raced, or the previous try a
// retry replaced) carries the path, with uncovered gaps between attempts
// attributed to backoff and the stretch before the first attempt to
// submit.
type TaskPath struct {
	Trace       uint64
	Placement   string // backend of the deciding attempt
	Failed      bool
	CompletionS float64
	Attempts    int
	PhaseS      map[string]float64
}

// CriticalPaths extracts one TaskPath per task trace in the set, in
// first-appearance order.
func CriticalPaths(set *SpanSet) []TaskPath {
	type traceSpans struct {
		root     *Span
		attempts []Span
		phases   map[uint64][]Span // attempt id → phase spans
	}
	byTrace := make(map[uint64]*traceSpans)
	var order []uint64
	get := func(id uint64) *traceSpans {
		ts, ok := byTrace[id]
		if !ok {
			ts = &traceSpans{phases: make(map[uint64][]Span)}
			byTrace[id] = ts
			order = append(order, id)
		}
		return ts
	}
	for i := range set.Spans {
		sp := set.Spans[i]
		if sp.Trace == 0 {
			continue
		}
		switch sp.Name {
		case SpanTask:
			get(sp.Trace).root = &set.Spans[i]
		case SpanAttempt:
			ts := get(sp.Trace)
			ts.attempts = append(ts.attempts, sp)
		case PhaseUplink, PhaseQueue, PhaseColdStart, PhaseExec, PhaseDownlink:
			ts := get(sp.Trace)
			ts.phases[sp.Parent] = append(ts.phases[sp.Parent], sp)
		}
	}

	var out []TaskPath
	for _, id := range order {
		ts := byTrace[id]
		if ts.root == nil {
			continue // incomplete trace: the run ended mid-task
		}
		out = append(out, walkPath(id, ts.root, ts.attempts, ts.phases))
	}
	return out
}

// walkPath runs the backwards walk for one task.
func walkPath(id uint64, root *Span, attempts []Span, phases map[uint64][]Span) TaskPath {
	p := TaskPath{
		Trace:       id,
		Placement:   root.Backend,
		Failed:      root.Status == StatusFailed,
		CompletionS: root.DurationS(),
		Attempts:    len(attempts),
		PhaseS:      make(map[string]float64, len(Phases)),
	}
	if len(attempts) == 0 {
		// Never dispatched (e.g. a task rejected by validation): all
		// submit-side time.
		p.PhaseS[PhaseSubmit] = p.CompletionS
		return p
	}
	sort.SliceStable(attempts, func(a, b int) bool {
		if attempts[a].Start != attempts[b].Start {
			return attempts[a].Start < attempts[b].Start
		}
		return attempts[a].ID < attempts[b].ID
	})

	// The deciding attempt: the winner if one exists, otherwise the
	// latest-ending attempt (terminal failure).
	cur := -1
	for i := range attempts {
		if attempts[i].Status == StatusWin {
			cur = i
			break
		}
	}
	if cur < 0 {
		cur = 0
		for i := range attempts {
			if attempts[i].End >= attempts[cur].End {
				cur = i
			}
		}
	}

	const eps = 1e-9
	tEnd := root.End
	for {
		a := attempts[cur]
		from := math.Max(a.Start, root.Start)
		p.addWindow(phases[a.ID], from, tEnd)
		tEnd = from
		if tEnd <= root.Start+eps {
			break
		}
		// The attempt in flight (or most recently finished) when cur
		// launched carries the path before it.
		prev := -1
		for i := 0; i < len(attempts); i++ {
			if attempts[i].Start >= a.Start-eps || i == cur {
				continue
			}
			if prev < 0 || attempts[i].End > attempts[prev].End ||
				(attempts[i].End == attempts[prev].End && attempts[i].Start > attempts[prev].Start) {
				prev = i
			}
		}
		if prev < 0 {
			p.PhaseS[PhaseSubmit] += tEnd - root.Start
			break
		}
		if attempts[prev].End < tEnd-eps {
			gapFrom := math.Max(attempts[prev].End, root.Start)
			p.PhaseS[PhaseBackoff] += tEnd - gapFrom
			tEnd = gapFrom
			if tEnd <= root.Start+eps {
				break
			}
		}
		cur = prev
	}
	return p
}

// addWindow attributes [from, to] using the attempt's phase spans,
// clipped to the window; anything the phases do not cover counts as
// "other".
func (p *TaskPath) addWindow(phases []Span, from, to float64) {
	if to <= from {
		return
	}
	sort.SliceStable(phases, func(a, b int) bool {
		if phases[a].Start != phases[b].Start {
			return phases[a].Start < phases[b].Start
		}
		return phases[a].ID < phases[b].ID
	})
	const eps = 1e-9 // float noise is not an uncovered hole
	cursor := from
	for _, ph := range phases {
		s, e := math.Max(ph.Start, cursor), math.Min(ph.End, to)
		if e <= s {
			continue
		}
		if s > cursor+eps {
			p.PhaseS[PhaseOther] += s - cursor
		}
		p.PhaseS[ph.Name] += e - s
		cursor = e
		if cursor >= to {
			return
		}
	}
	if to > cursor+eps {
		p.PhaseS[PhaseOther] += to - cursor
	}
}

// PhaseStats aggregates one phase's critical-path contribution across a
// group of tasks. Shares are fractions of total completion time: the
// mean over all tasks, and within the P50/P95/P99 completion-time bands
// (a band covers the tasks whose completion time ranks in [q, q+0.05],
// so the P95 column answers "what made the slow tasks slow").
type PhaseStats struct {
	MeanS     float64
	ShareMean float64
	ShareP50  float64
	ShareP95  float64
	ShareP99  float64
}

// PhaseGroup is the attribution for one slice of tasks (a placement, or
// "all").
type PhaseGroup struct {
	Name            string
	Tasks           int
	MeanCompletionS float64
	Phase           map[string]PhaseStats
}

// Attribution is the run-level phase-attribution result.
type Attribution struct {
	Run    string
	Policy string
	Failed int // failed tasks, excluded from the groups below
	Groups []PhaseGroup
}

// quantileBands are the completion-time bands the attribution reports.
var quantileBands = []struct {
	name string
	q, w float64
}{
	{"p50", 0.50, 0.05},
	{"p95", 0.95, 0.05},
	{"p99", 0.99, 0.01},
}

// Attribute computes the run-level phase-attribution tables from a span
// set: the mean critical-path seconds per phase and the share of
// completion time each phase contributes, overall and within the
// P50/P95/P99 completion-time bands, split by placement. Failed tasks
// are excluded (they have no completion time) but counted in Failed.
func Attribute(set *SpanSet) *Attribution {
	paths := CriticalPaths(set)
	att := &Attribution{Run: set.Run, Policy: set.Policy}
	var ok []TaskPath
	for _, p := range paths {
		if p.Failed {
			att.Failed++
			continue
		}
		ok = append(ok, p)
	}

	groups := map[string][]TaskPath{"all": ok}
	var names []string
	for _, p := range ok {
		if _, seen := groups[p.Placement]; !seen {
			names = append(names, p.Placement)
		}
		groups[p.Placement] = append(groups[p.Placement], p)
	}
	sort.Strings(names)
	for _, name := range append([]string{"all"}, names...) {
		att.Groups = append(att.Groups, aggregate(name, groups[name]))
	}
	return att
}

// aggregate folds one group of task paths into PhaseStats.
func aggregate(name string, paths []TaskPath) PhaseGroup {
	g := PhaseGroup{Name: name, Tasks: len(paths), Phase: make(map[string]PhaseStats, len(Phases))}
	if len(paths) == 0 {
		return g
	}
	sorted := make([]TaskPath, len(paths))
	copy(sorted, paths)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].CompletionS < sorted[b].CompletionS })

	totalS := 0.0
	for _, p := range sorted {
		totalS += p.CompletionS
	}
	g.MeanCompletionS = totalS / float64(len(sorted))

	shareIn := func(band []TaskPath, phase string) float64 {
		var ph, tot float64
		for _, p := range band {
			ph += p.PhaseS[phase]
			tot += p.CompletionS
		}
		if tot <= 0 {
			return 0
		}
		return ph / tot
	}
	bands := make(map[string][]TaskPath, len(quantileBands))
	for _, b := range quantileBands {
		bands[b.name] = bandSlice(sorted, b.q, b.w)
	}
	for _, phase := range Phases {
		var sum float64
		for _, p := range sorted {
			sum += p.PhaseS[phase]
		}
		g.Phase[phase] = PhaseStats{
			MeanS:     sum / float64(len(sorted)),
			ShareMean: shareIn(sorted, phase),
			ShareP50:  shareIn(bands["p50"], phase),
			ShareP95:  shareIn(bands["p95"], phase),
			ShareP99:  shareIn(bands["p99"], phase),
		}
	}
	return g
}

// bandSlice returns the tasks whose completion-time rank falls in
// [q, q+w], always at least one task (the one at rank q). sorted must be
// ascending by completion time.
func bandSlice(sorted []TaskPath, q, w float64) []TaskPath {
	n := len(sorted)
	if n == 0 {
		return nil
	}
	lo := int(q * float64(n))
	if lo >= n {
		lo = n - 1
	}
	hi := int(math.Ceil(math.Min(q+w, 1) * float64(n)))
	if hi <= lo {
		hi = lo + 1
	}
	return sorted[lo:hi]
}

// Group returns the named group, or nil.
func (a *Attribution) Group(name string) *PhaseGroup {
	for i := range a.Groups {
		if a.Groups[i].Name == name {
			return &a.Groups[i]
		}
	}
	return nil
}

// Table renders the attribution as a metrics.Table: one row per
// (group, phase) with positive contribution.
func (a *Attribution) Table() *metrics.Table {
	title := "critical-path phase attribution"
	if a.Policy != "" {
		title += " · policy=" + a.Policy
	}
	if a.Run != "" {
		title += " · run=" + a.Run
	}
	t := metrics.NewTable(title,
		"group", "phase", "mean_s", "share", "share_p50", "share_p95", "share_p99").
		Kinds(metrics.Auto, metrics.Auto, metrics.Auto, metrics.Percent, metrics.Percent, metrics.Percent, metrics.Percent)
	for _, g := range a.Groups {
		for _, phase := range Phases {
			ps := g.Phase[phase]
			if ps.MeanS == 0 && ps.ShareP95 == 0 && ps.ShareP99 == 0 {
				continue
			}
			t.Add(g.Name, phase, ps.MeanS, ps.ShareMean, ps.ShareP50, ps.ShareP95, ps.ShareP99)
		}
	}
	return t
}

// Waste accounts for simulated time and money spent on attempts that did
// not produce their task's result: losing hedges, retried failures,
// timed-out stragglers, and every attempt of a task that ultimately
// failed.
type Waste struct {
	Attempts int // attempt spans seen
	Losing   int // attempts that did not settle their task

	Retries    int // attempts that failed transiently and were re-dispatched
	Timeouts   int // attempts abandoned by the per-attempt timeout
	Hedges     int // hedge attempts launched
	LostHedges int // hedge attempts that lost the race

	LostSeconds float64 // summed duration of losing attempts
	LostUSD     float64 // money billed by losing attempts

	AttemptUSD float64 // money billed across all attempts
	TaskUSD    float64 // money on task root spans (attempt totals folded by the scheduler)
}

// ComputeWaste scans a span set's attempt and root spans.
func ComputeWaste(set *SpanSet) Waste {
	var w Waste
	for _, sp := range set.Spans {
		switch sp.Name {
		case SpanTask:
			w.TaskUSD += sp.CostUSD
		case SpanAttempt:
			w.Attempts++
			w.AttemptUSD += sp.CostUSD
			if sp.Hedge {
				w.Hedges++
				if sp.Status != StatusWin {
					w.LostHedges++
				}
			}
			switch sp.Status {
			case StatusRetry:
				w.Retries++
			case StatusTimeout:
				w.Timeouts++
			}
			if sp.Status != StatusWin {
				w.Losing++
				w.LostSeconds += sp.DurationS()
				w.LostUSD += sp.CostUSD
			}
		}
	}
	return w
}

// Table renders the waste accounting.
func (w Waste) Table() *metrics.Table {
	t := metrics.NewTable("retry/hedge waste accounting", "metric", "value")
	t.Add("attempts", w.Attempts)
	t.Add("losing attempts", w.Losing)
	t.Add("retries", w.Retries)
	t.Add("timeouts", w.Timeouts)
	t.Add("hedges launched", w.Hedges)
	t.Add("hedges lost", w.LostHedges)
	t.Add("lost simulated seconds", w.LostSeconds)
	t.Add("lost spend (USD)", fmt.Sprintf("%.6g", w.LostUSD))
	t.Add("attempt spend (USD)", fmt.Sprintf("%.6g", w.AttemptUSD))
	t.Add("task spend (USD)", fmt.Sprintf("%.6g", w.TaskUSD))
	return t
}
