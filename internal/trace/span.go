package trace

import (
	"math"
	"sort"

	"offload/internal/model"
	"offload/internal/sim"
)

// Span names. A task trace is a tree: one root "task" span, one "attempt"
// span per dispatch (retries and hedges included), and phase spans under
// each attempt reconstructing where the attempt's wall time went. Gap
// spans ("submit", "backoff") hang off the root and cover the intervals
// no attempt was in flight. Zero-width event spans ("breaker",
// "hedge_cancel") mark control-plane transitions.
const (
	SpanTask    = "task"
	SpanAttempt = "attempt"
	SpanJob     = "job" // DAG job root; its children are the node task spans

	PhaseSubmit    = "submit"     // decided but no attempt launched yet (batching, shifting)
	PhaseUplink    = "uplink"     // input bytes in flight to the execution site
	PhaseQueue     = "queue"      // waiting for a free unit at the substrate
	PhaseColdStart = "cold_start" // environment provisioning
	PhaseExec      = "exec"       // computation
	PhaseDownlink  = "downlink"   // output bytes returning to the device
	PhaseBackoff   = "backoff"    // between attempts: retry backoff / breaker wait
	PhaseOther     = "other"      // attempt time the outcome could not decompose

	EventBreaker     = "breaker"      // Status carries "from>to"
	EventHedgeCancel = "hedge_cancel" // armed hedge timer cancelled unfired
	EventAdapt       = "adapt"        // adaptive-layer decision; Status carries the kind
	EventRegion      = "region"       // region health transition; Status carries "down"/"up"
	EventDegrade     = "degrade"      // ladder rung change; Status carries "from>to"
	EventRehome      = "rehome"       // task re-dispatched across regions; Status carries "from>to"
)

// Attempt statuses: how one dispatch of a task ended.
const (
	StatusWin     = "win"     // this attempt's result settled the task
	StatusLose    = "lose"    // completed fine, but the task was already decided
	StatusRetry   = "retry"   // transient failure, re-dispatched
	StatusFailed  = "failed"  // terminal failure
	StatusTimeout = "timeout" // abandoned by the per-attempt timeout
)

// Task root statuses.
const (
	StatusOK     = "ok"
	StatusMissed = "missed"
)

// Fault classifications recorded on failed attempt spans.
const (
	FaultTransient = "transient"
	FaultFatal     = "fatal"
)

// Span is one node of a task's causal trace, flattened for serialisation.
// Times are simulated seconds. Spans are comparable, so tests and the
// fuzz round trip can use ==.
type Span struct {
	ID     uint64 `json:"id"`
	Trace  uint64 `json:"trace,omitempty"`  // task ID; 0 for run-scoped events
	Parent uint64 `json:"parent,omitempty"` // 0 for roots and run-scoped events

	Name    string  `json:"name"`
	Backend string  `json:"backend,omitempty"` // placement the span ran against
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`

	Attempt int    `json:"attempt,omitempty"` // 1-based dispatch number within the task
	Hedge   bool   `json:"hedge,omitempty"`
	Status  string `json:"status,omitempty"`
	Fault   string `json:"fault,omitempty"`

	CostUSD float64 `json:"cost_usd,omitempty"`
}

// DurationS returns the span's width in simulated seconds.
func (s Span) DurationS() float64 { return s.End - s.Start }

// SpanRecorder assembles Spans from a lifecycle Stream it subscribes to.
// It reconstructs per-attempt phase spans from each attempt's outcome and
// synthesizes the submit/backoff gaps when the task settles. IDs are
// assigned in event order, so a recorder driven by a deterministic
// simulation produces byte-identical output every run.
type SpanRecorder struct {
	run    string
	policy string

	spans  []Span
	nextID uint64

	byID    map[uint64]int       // attempt span id → index in spans
	traces  map[uint64]*traceRec // open trace → its bookkeeping
	adopted map[uint64]uint64    // task trace → owning job trace (KindAdopt)

	// freeRecs pools settled traces' records, attempt-id slices included,
	// so steady-state recording allocates no bookkeeping per task.
	freeRecs sim.FreeList[*traceRec]

	// Bounded mode (see Bound): limit > 0 caps retained spans by
	// compacting away the oldest settled-trace spans; dropped counts the
	// casualties.
	limit   int
	dropped uint64
}

// traceRec is the recorder's bookkeeping for one trace, from its first
// span until it settles.
type traceRec struct {
	root uint64   // reserved root span ID; 0 when none is reserved
	ids  []uint64 // attempt span IDs, start order
	sim.Link[*traceRec]
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{
		byID:    make(map[uint64]int),
		traces:  make(map[uint64]*traceRec),
		adopted: make(map[uint64]uint64),
	}
}

// SetMeta names the run (e.g. the experiment cell) and the policy that
// produced it; both land in the export header.
func (r *SpanRecorder) SetMeta(run, policy string) {
	r.run = run
	r.policy = policy
}

// Bound puts the recorder into bounded mode: it retains at most roughly
// 2×maxSpans spans, compacting away the oldest settled-task spans once
// the buffer fills (spans of still-open tasks are always kept, whatever
// their age). Million-task runs then record at a flat memory footprint
// instead of retaining every span tree. The buffer is allocated once, at
// the first recorded span, with room for a whole compaction cycle.
// Dropped reports how many spans compaction discarded. maxSpans must be
// positive; call before recording.
//
// The default (unbounded) recorder retains everything and its output is
// unaffected by this feature existing.
func (r *SpanRecorder) Bound(maxSpans int) {
	if maxSpans <= 0 {
		panic("trace: Bound with non-positive span limit")
	}
	r.limit = maxSpans
}

// Dropped returns how many spans bounded-mode compaction has discarded.
func (r *SpanRecorder) Dropped() uint64 { return r.dropped }

// buf returns the span buffer to append to. A bounded recorder allocates
// it whole on first use: 2×limit spans trigger a compaction at the next
// settled task, and the extra eighth holds the spans recorded between
// settlements and the open traces' spans a compaction keeps, so the
// buffer does not regrow. Should a run overrun it anyway, append grows
// it as usual.
func (r *SpanRecorder) buf() []Span {
	if r.spans == nil && r.limit > 0 {
		r.spans = make([]Span, 0, 2*r.limit+r.limit/8)
	}
	return r.spans
}

// isOpen reports whether the trace has a root span reserved and not yet
// appended: its spans must survive compaction.
func (r *SpanRecorder) isOpen(trace uint64) bool {
	t, ok := r.traces[trace]
	return ok && t.root != 0
}

// compact drops the oldest settled-trace spans down to the bound,
// keeping every span of a still-open trace and the newest limit spans.
// It runs only when bounded mode is on and the buffer hit 2×limit, so
// the cost amortises to O(1) per recorded span.
func (r *SpanRecorder) compact() {
	keepFrom := len(r.spans) - r.limit
	// Older spans survive only on an open trace.
	w := 0
	for i := range r.spans[:keepFrom] {
		sp := &r.spans[i]
		if sp.Trace != 0 && r.isOpen(sp.Trace) {
			r.spans[w] = *sp
			w++
		} else {
			r.dropped++
		}
	}
	copy(r.spans[w:], r.spans[keepFrom:])
	r.spans = r.spans[:w+r.limit]
	// Surviving spans moved; re-anchor the open attempts' index map.
	clear(r.byID)
	for i := range r.spans {
		sp := &r.spans[i]
		if sp.Name == SpanAttempt && r.isOpen(sp.Trace) {
			r.byID[sp.ID] = i
		}
	}
}

// Len returns the number of spans recorded so far.
func (r *SpanRecorder) Len() int { return len(r.spans) }

// Set returns the recorded spans with the run metadata attached. The
// span slice is a copy.
func (r *SpanRecorder) Set() *SpanSet {
	cp := make([]Span, len(r.spans))
	copy(cp, r.spans)
	return &SpanSet{Run: r.run, Policy: r.policy, Spans: cp}
}

func (r *SpanRecorder) id() uint64 {
	r.nextID++
	return r.nextID
}

// open returns the trace's record, reserving its root span ID if none is,
// so attempt spans can point at their parent before the root itself is
// appended.
func (r *SpanRecorder) open(trace uint64) *traceRec {
	t, ok := r.traces[trace]
	if !ok {
		if t = r.freeRecs.Get(); t == nil {
			t = &traceRec{}
		}
		r.traces[trace] = t
	}
	if t.root == 0 {
		t.root = r.id()
	}
	return t
}

// OnEvent implements Subscriber.
func (r *SpanRecorder) OnEvent(ev Event) {
	switch ev.Kind {
	case KindAttemptStart:
		r.attemptStart(&ev)
	case KindAttemptEnd:
		r.attemptEnd(&ev)
	case KindAttemptCost:
		if sp := r.attempt(ev.Task, ev.Attempt); sp != nil {
			sp.CostUSD += ev.CostUSD
		}
	case KindSettle:
		r.taskDone(&ev.Outcome)
	case KindAdopt:
		// When the task settles, its root span is parented under the
		// job's root span instead of standing alone.
		r.adopted[uint64(ev.Task)] = ev.Job
	case KindJobDone:
		r.jobDone(&ev)
	case KindBreaker:
		r.mark(EventBreaker, 0, ev.Placement.String(), ev.From+">"+ev.To, ev.At)
	case KindAdapt:
		r.mark(EventAdapt, 0, ev.Name, ev.Status, ev.At)
	case KindRegion:
		status := "up"
		if ev.Down {
			status = "down"
		}
		r.mark(EventRegion, 0, ev.Name, status, ev.At)
	case KindDegrade:
		r.mark(EventDegrade, 0, "", ev.From+">"+ev.To, ev.At)
	case KindRehome:
		r.mark(EventRehome, uint64(ev.Task), "", ev.Placement.String()+">"+ev.Target.String(), ev.At)
	case KindHedgeCancel:
		r.mark(EventHedgeCancel, uint64(ev.Task), "", "", ev.At)
	}
}

// mark appends a zero-width event span: run-scoped when trace is 0,
// otherwise parented under the trace's root span.
func (r *SpanRecorder) mark(name string, trace uint64, backend, status string, at sim.Time) {
	sp := Span{
		ID: r.id(), Trace: trace, Name: name, Backend: backend,
		Start: float64(at), End: float64(at), Status: status,
	}
	if trace != 0 {
		sp.Parent = r.open(trace).root
	}
	r.spans = append(r.buf(), sp)
}

// attemptStart opens an attempt span under the task's root.
func (r *SpanRecorder) attemptStart(ev *Event) {
	trace := uint64(ev.Task)
	t := r.open(trace)
	id := r.id()
	r.byID[id] = len(r.spans)
	t.ids = append(t.ids, id)
	r.spans = append(r.buf(), Span{
		ID: id, Trace: trace, Parent: t.root,
		Name: SpanAttempt, Backend: ev.Placement.String(),
		Start: float64(ev.At), End: float64(ev.At),
		Attempt: ev.Attempt, Hedge: ev.Hedge,
	})
}

// attempt returns the open span of the task's attempt with that ordinal,
// or nil.
func (r *SpanRecorder) attempt(task model.TaskID, ordinal int) *Span {
	t, ok := r.traces[uint64(task)]
	if !ok {
		return nil
	}
	for _, id := range t.ids {
		if idx, ok := r.byID[id]; ok && r.spans[idx].Attempt == ordinal {
			return &r.spans[idx]
		}
	}
	return nil
}

// attemptEnd closes the attempt span with its outcome and status.
func (r *SpanRecorder) attemptEnd(ev *Event) {
	sp := r.attempt(ev.Task, ev.Attempt)
	if sp == nil {
		return
	}
	o := &ev.Outcome
	sp.End = float64(ev.At)
	sp.Status = ev.Status
	sp.CostUSD += o.CostUSD
	if o.Failed && o.Exec.Err != nil {
		if model.Transient(o.Exec.Err) {
			sp.Fault = FaultTransient
		} else {
			sp.Fault = FaultFatal
		}
	}
	if ev.Status != StatusTimeout {
		// A timed-out attempt's synthetic outcome says nothing about where
		// the straggler was stuck; leave it undecomposed.
		r.emitPhases(sp, o)
	}
}

// emitPhases reconstructs the attempt's timeline from its outcome:
// uplink → queue → cold_start → exec → downlink, emitting only phases
// with positive width.
func (r *SpanRecorder) emitPhases(a *Span, o *model.Outcome) {
	// a points into r.spans, which the appends below may move.
	trace, parent, backend, attempt, hedge, start := a.Trace, a.ID, a.Backend, a.Attempt, a.Hedge, a.Start
	add := func(name string, start, end float64) {
		if !(end > start) || math.IsNaN(start) || math.IsNaN(end) {
			return
		}
		r.spans = append(r.buf(), Span{
			ID: r.id(), Trace: trace, Parent: parent,
			Name: name, Backend: backend,
			Start: start, End: end,
			Attempt: attempt, Hedge: hedge,
		})
	}
	up := float64(o.UplinkTime)
	add(PhaseUplink, start, start+up)
	// The substrate report places queue wait and cold start at the front
	// of [Exec.Start, Exec.End]; the remainder is computation.
	es, ee := float64(o.Exec.Start), float64(o.Exec.End)
	if ee > 0 || es > 0 {
		q, c := float64(o.Exec.QueueWait), float64(o.Exec.ColdStart)
		add(PhaseQueue, es, es+q)
		add(PhaseColdStart, es+q, es+q+c)
		add(PhaseExec, es+q+c, ee)
		add(PhaseDownlink, ee, ee+float64(o.DownlinkTime))
	}
}

// taskDone appends the root span and the submit/backoff gaps — the
// sub-intervals of [Started, Finished] during which no attempt was in
// flight.
func (r *SpanRecorder) taskDone(o *model.Outcome) {
	if o.Task == nil {
		return
	}
	trace := uint64(o.Task.ID)
	t := r.open(trace)
	root := t.root
	start, end := float64(o.Started), float64(o.Finished)

	status := StatusOK
	switch {
	case o.Failed:
		status = StatusFailed
	case o.MissedDeadline():
		status = StatusMissed
	}

	// A task adopted under a DAG job parents its root span there; the job
	// root's ID is reserved now and materialises when the job settles.
	var parent uint64
	if job, ok := r.adopted[trace]; ok {
		parent = r.open(job).root
		delete(r.adopted, trace)
	}

	r.emitGaps(t, trace, root, start, end)
	r.spans = append(r.buf(), Span{
		ID: root, Trace: trace, Parent: parent,
		Name: SpanTask, Backend: o.Placement.String(),
		Start: start, End: end,
		Attempt: o.Attempts, Status: status,
		CostUSD: o.CostUSD,
	})

	// The task settled and every attempt drained (the scheduler only
	// reports drained tasks), so its bookkeeping can go. The record, and
	// its attempt-id slice, return to the pool for the next trace.
	for _, id := range t.ids {
		delete(r.byID, id)
	}
	delete(r.traces, trace)
	r.release(t)

	if r.limit > 0 && len(r.spans) > 2*r.limit {
		r.compact()
	}
}

// release clears a settled trace's record and pools it, keeping the
// attempt-id slice's backing array.
func (r *SpanRecorder) release(t *traceRec) {
	*t = traceRec{ids: t.ids[:0]}
	r.freeRecs.Put(t)
}

// jobDone appends the job's root span — the parent every adopted node
// task span points at — closing the job trace.
func (r *SpanRecorder) jobDone(ev *Event) {
	t := r.open(ev.Job)
	r.spans = append(r.buf(), Span{
		ID: t.root, Trace: ev.Job,
		Name: SpanJob, Backend: ev.Name,
		Start: float64(ev.Start), End: float64(ev.At),
		Status: ev.Status, CostUSD: ev.CostUSD,
	})
	// The job's root is appended; a job trace carries no attempts of its
	// own, but should a task share its ID their bookkeeping stays.
	t.root = 0
	if len(t.ids) == 0 {
		delete(r.traces, ev.Job)
		r.release(t)
	}
	if r.limit > 0 && len(r.spans) > 2*r.limit {
		r.compact()
	}
}

// MergeSets combines spans from several recorders into one SpanSet in a
// canonical order, independent of how work was partitioned across the
// recorders. The sharded fleet records each shard's spans on its own
// recorder (recorders are single-threaded) and merges at the end; for
// the merged output to be byte-identical at every shard count, each
// trace (task) must be recorded wholly by one recorder, and trace IDs
// must not depend on the partition — both hold for per-UE task IDs.
//
// Ordering: spans sort by trace ID, and within a trace by their recorder
// position (one trace, one recorder, so that position is the recording
// order the serial run would have produced). Span IDs are renumbered
// densely in the canonical order, with parent links rewritten to match.
// Trace-0 (run-scoped event) spans order by start time, then input-set
// position — deterministic, but only partition-independent when such
// events are absent, which the sharded fleet's configuration gate
// guarantees.
func MergeSets(run, policy string, sets ...*SpanSet) *SpanSet {
	type entry struct {
		sp  Span
		set int
		pos int
	}
	var entries []entry
	for si, s := range sets {
		if s == nil {
			continue
		}
		for pi, sp := range s.Spans {
			entries = append(entries, entry{sp: sp, set: si, pos: pi})
		}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := &entries[i], &entries[j]
		if a.sp.Trace != b.sp.Trace {
			return a.sp.Trace < b.sp.Trace
		}
		if a.set != b.set {
			if a.sp.Start != b.sp.Start {
				return a.sp.Start < b.sp.Start
			}
			return a.set < b.set
		}
		return a.pos < b.pos
	})
	// Two passes: IDs first (a root span is appended after its children,
	// so a child's Parent can name an ID that sorts later), then links.
	type key struct {
		set int
		id  uint64
	}
	newID := make(map[key]uint64, len(entries))
	for i := range entries {
		newID[key{entries[i].set, entries[i].sp.ID}] = uint64(i + 1)
	}
	out := make([]Span, len(entries))
	for i := range entries {
		sp := entries[i].sp
		sp.ID = newID[key{entries[i].set, sp.ID}]
		if sp.Parent != 0 {
			sp.Parent = newID[key{entries[i].set, sp.Parent}]
		}
		out[i] = sp
	}
	return &SpanSet{Run: run, Policy: policy, Spans: out}
}

// emitGaps walks the task's attempt intervals in start order and emits a
// gap span for every hole in their union over [start, end]: before the
// first attempt the task was pending submission ("submit"), between
// attempts it was backing off ("backoff").
func (r *SpanRecorder) emitGaps(t *traceRec, trace, root uint64, start, end float64) {
	const eps = 1e-9
	cursor := start
	sawAttempt := false
	for _, id := range t.ids {
		idx, ok := r.byID[id]
		if !ok {
			continue
		}
		aStart, aEnd := r.spans[idx].Start, r.spans[idx].End
		if aStart-cursor > eps && aStart <= end+eps {
			name := PhaseBackoff
			if !sawAttempt {
				name = PhaseSubmit
			}
			r.spans = append(r.buf(), Span{
				ID: r.id(), Trace: trace, Parent: root,
				Name: name, Start: cursor, End: math.Min(aStart, end),
			})
		}
		sawAttempt = true
		if aEnd > cursor {
			cursor = aEnd
		}
		if cursor >= end {
			return
		}
	}
	if end-cursor > eps {
		name := PhaseBackoff
		if !sawAttempt {
			name = PhaseSubmit
		}
		r.spans = append(r.buf(), Span{
			ID: r.id(), Trace: trace, Parent: root,
			Name: name, Start: cursor, End: end,
		})
	}
}
