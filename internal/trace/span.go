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

// Tracer receives the scheduler's causal hook points. Implementations
// must be passive: they may record, but must not schedule events, draw
// randomness, or mutate tasks — attaching a tracer never changes
// simulated results (TestSpansAreInert enforces this).
//
// AttemptStart returns an attempt handle that the scheduler threads back
// into AttemptEnd / AttemptCost, so overlapping attempts of one task
// (hedges) stay distinguishable.
type Tracer interface {
	// AttemptStart marks one dispatch of the task at the placement.
	AttemptStart(task *model.Task, placement model.Placement, hedge bool, at sim.Time) uint64
	// AttemptEnd closes the attempt with its outcome and status (one of
	// the Status* constants).
	AttemptEnd(id uint64, o model.Outcome, status string, at sim.Time)
	// AttemptCost folds money billed by an attempt after it was already
	// closed (a timed-out attempt's zombie completion).
	AttemptCost(id uint64, costUSD float64)
	// BreakerTransition records a circuit-breaker state change on a
	// backend; states arrive as strings ("closed", "open", "half-open").
	BreakerTransition(placement model.Placement, from, to string, at sim.Time)
	// HedgeCanceled records an armed hedge timer dismissed unfired.
	HedgeCanceled(task model.TaskID, at sim.Time)
	// TaskDone records the task's settled end-to-end outcome.
	TaskDone(o model.Outcome, at sim.Time)
}

// JobTracer is the optional extension a Tracer can implement to receive
// the DAG orchestrator's hook points: node tasks adopted under a job
// trace, and the job's settlement. Kept separate from Tracer so existing
// implementations stay valid. The same passivity contract applies.
type JobTracer interface {
	// AdoptTrace parents the task's (future) root span under the job's
	// root span. Call before the task settles.
	AdoptTrace(task model.TaskID, job uint64)
	// JobDone records the settled job as a root span on the job trace.
	JobDone(job uint64, app string, start, end sim.Time, status string, costUSD float64)
}

// RegionTracer is the optional extension a Tracer can implement to
// receive the regional failover layer's hook points. Kept separate from
// Tracer so existing implementations stay valid; the scheduler
// type-asserts for it. The same passivity contract applies.
type RegionTracer interface {
	// RegionTransition records a region going down or coming back up.
	RegionTransition(region string, down bool, at sim.Time)
	// DegradationChange records the graceful-degradation ladder moving
	// between rungs (rung names: healthy, shed-low, localize-critical,
	// queue-and-wait).
	DegradationChange(from, to string, at sim.Time)
	// TaskRehomed records a task re-dispatched from a dead region's
	// placement to a surviving one, paying the state-transfer cost.
	TaskRehomed(task model.TaskID, from, to model.Placement, at sim.Time)
}

// SpanRecorder assembles Spans from the scheduler's Tracer hook points.
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
	adopted map[uint64]uint64    // task trace → owning job trace (AdoptTrace)

	// freeRecs pools settled traces' records, attempt-id slices included,
	// so steady-state recording allocates no bookkeeping per task.
	freeRecs sim.FreeList[traceRec]

	// Bounded mode (see Bound): limit > 0 caps retained spans by
	// compacting away the oldest settled-trace spans; dropped counts the
	// casualties.
	limit   int
	dropped uint64
}

// traceRec is the recorder's bookkeeping for one trace, from its first
// span until it settles.
type traceRec struct {
	root     uint64   // reserved root span ID; 0 when none is reserved
	attempts int      // attempts started so far
	ids      []uint64 // attempt span IDs, start order
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

// AttemptStart implements Tracer.
func (r *SpanRecorder) AttemptStart(task *model.Task, placement model.Placement, hedge bool, at sim.Time) uint64 {
	trace := uint64(task.ID)
	t := r.open(trace)
	t.attempts++
	id := r.id()
	r.byID[id] = len(r.spans)
	t.ids = append(t.ids, id)
	r.spans = append(r.buf(), Span{
		ID: id, Trace: trace, Parent: t.root,
		Name: SpanAttempt, Backend: placement.String(),
		Start: float64(at), End: float64(at),
		Attempt: t.attempts, Hedge: hedge,
	})
	return id
}

// AttemptEnd implements Tracer.
func (r *SpanRecorder) AttemptEnd(id uint64, o model.Outcome, status string, at sim.Time) {
	idx, ok := r.byID[id]
	if !ok {
		return
	}
	sp := &r.spans[idx]
	sp.End = float64(at)
	sp.Status = status
	sp.CostUSD += o.CostUSD
	if o.Failed && o.Exec.Err != nil {
		if model.Transient(o.Exec.Err) {
			sp.Fault = FaultTransient
		} else {
			sp.Fault = FaultFatal
		}
	}
	if status != StatusTimeout {
		// A timed-out attempt's synthetic outcome says nothing about where
		// the straggler was stuck; leave it undecomposed.
		r.emitPhases(sp, &o)
	}
}

// AttemptCost implements Tracer.
func (r *SpanRecorder) AttemptCost(id uint64, costUSD float64) {
	if idx, ok := r.byID[id]; ok {
		r.spans[idx].CostUSD += costUSD
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

// BreakerTransition implements Tracer.
func (r *SpanRecorder) BreakerTransition(placement model.Placement, from, to string, at sim.Time) {
	r.spans = append(r.buf(), Span{
		ID: r.id(), Name: EventBreaker, Backend: placement.String(),
		Start: float64(at), End: float64(at),
		Status: from + ">" + to,
	})
}

// AdaptEvent records a control-plane decision of the adaptive layer
// (internal/adapt) as a zero-width run-scoped event span: Status carries
// the decision kind (drift_reset, resize, localize), Backend its subject.
func (r *SpanRecorder) AdaptEvent(kind, subject string, at sim.Time) {
	r.spans = append(r.buf(), Span{
		ID: r.id(), Name: EventAdapt, Backend: subject,
		Start: float64(at), End: float64(at),
		Status: kind,
	})
}

// RegionTransition implements RegionTracer as a zero-width run-scoped
// event span: Backend carries the region name, Status "down" or "up".
func (r *SpanRecorder) RegionTransition(region string, down bool, at sim.Time) {
	status := "up"
	if down {
		status = "down"
	}
	r.spans = append(r.buf(), Span{
		ID: r.id(), Name: EventRegion, Backend: region,
		Start: float64(at), End: float64(at),
		Status: status,
	})
}

// DegradationChange implements RegionTracer: a zero-width run-scoped
// event span whose Status carries "from>to" rung names.
func (r *SpanRecorder) DegradationChange(from, to string, at sim.Time) {
	r.spans = append(r.buf(), Span{
		ID: r.id(), Name: EventDegrade,
		Start: float64(at), End: float64(at),
		Status: from + ">" + to,
	})
}

// TaskRehomed implements RegionTracer: a zero-width span on the task's
// trace whose Status carries the "from>to" placements.
func (r *SpanRecorder) TaskRehomed(task model.TaskID, from, to model.Placement, at sim.Time) {
	trace := uint64(task)
	r.spans = append(r.buf(), Span{
		ID: r.id(), Trace: trace, Parent: r.open(trace).root,
		Name:  EventRehome,
		Start: float64(at), End: float64(at),
		Status: from.String() + ">" + to.String(),
	})
}

// HedgeCanceled implements Tracer.
func (r *SpanRecorder) HedgeCanceled(task model.TaskID, at sim.Time) {
	trace := uint64(task)
	r.spans = append(r.buf(), Span{
		ID: r.id(), Trace: trace, Parent: r.open(trace).root,
		Name:  EventHedgeCancel,
		Start: float64(at), End: float64(at),
	})
}

// TaskDone implements Tracer: it appends the root span and the
// submit/backoff gaps — the sub-intervals of [Started, Finished] during
// which no attempt was in flight.
func (r *SpanRecorder) TaskDone(o model.Outcome, at sim.Time) {
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
	// root's ID is reserved now and materialises at JobDone.
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

// AdoptTrace implements JobTracer: when the task settles, its root span
// will be parented under the job's root span instead of standing alone.
func (r *SpanRecorder) AdoptTrace(task model.TaskID, job uint64) {
	r.adopted[uint64(task)] = job
}

// JobDone implements JobTracer: it appends the job's root span — the
// parent every adopted node task span points at — closing the job trace.
func (r *SpanRecorder) JobDone(job uint64, app string, start, end sim.Time, status string, costUSD float64) {
	t := r.open(job)
	r.spans = append(r.buf(), Span{
		ID: t.root, Trace: job,
		Name: SpanJob, Backend: app,
		Start: float64(start), End: float64(end),
		Status: status, CostUSD: costUSD,
	})
	// The job's root is appended; a job trace carries no attempts of its
	// own, but should a task share its ID their bookkeeping stays.
	t.root = 0
	if t.attempts == 0 {
		delete(r.traces, job)
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
