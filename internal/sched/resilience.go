package sched

import (
	"fmt"

	"offload/internal/model"
	"offload/internal/sim"
	"offload/internal/trace"
)

// ErrAttemptTimeout is reported when the resilience layer abandons an
// attempt that exceeded the per-attempt timeout. It wraps
// model.ErrTransient: a killed straggler is worth re-dispatching.
var ErrAttemptTimeout = fmt.Errorf("sched: attempt exceeded per-attempt timeout: %w", model.ErrTransient)

// Resilience configures the scheduler's client-side fault-handling layer.
// Every control is optional; the zero value (with WithResilience) only
// changes retries to flow through the attempt machinery.
type Resilience struct {
	// AttemptTimeout abandons a remote attempt that has not completed
	// within this duration; the abandoned attempt's cost still counts and
	// the task is re-dispatched (consuming a retry attempt). Zero disables.
	AttemptTimeout sim.Duration

	// Hedging launches one duplicate attempt when the primary has been in
	// flight for the hedge delay; the first completion wins and the
	// loser's cost is folded into the outcome. The delay is the
	// HedgeQuantile of observed remote attempt latencies once
	// HedgeMinSamples (default 20) have been seen, and HedgeDelay before
	// that. HedgeQuantile 0 always uses the fixed HedgeDelay; with both
	// zero, hedging is off. MaxHedges bounds duplicates per task
	// (default 1 when hedging is enabled).
	HedgeDelay      sim.Duration
	HedgeQuantile   float64
	HedgeMinSamples int
	MaxHedges       int

	// Breaker, when non-nil, installs one circuit breaker per remote
	// placement. While a placement's breaker refuses an attempt, the task
	// is rerouted to Fallback (default PlaceLocal) instead.
	Breaker  *BreakerConfig
	Fallback model.Placement
}

// Validate reports whether the configuration is usable.
func (r *Resilience) Validate() error {
	switch {
	case r.AttemptTimeout < 0:
		return fmt.Errorf("sched: negative attempt timeout")
	case r.HedgeDelay < 0:
		return fmt.Errorf("sched: negative hedge delay")
	case r.HedgeQuantile < 0 || r.HedgeQuantile >= 1:
		return fmt.Errorf("sched: hedge quantile %g outside [0,1)", r.HedgeQuantile)
	case r.HedgeMinSamples < 0 || r.MaxHedges < 0:
		return fmt.Errorf("sched: negative hedge bound")
	}
	if r.Breaker != nil {
		if err := r.Breaker.Validate(); err != nil {
			return err
		}
	}
	switch r.Fallback {
	case model.PlaceUnknown, model.PlaceLocal, model.PlaceEdge, model.PlaceFunction, model.PlaceVM:
	default:
		return fmt.Errorf("sched: unknown fallback placement %v", r.Fallback)
	}
	return nil
}

func (r *Resilience) hedging() bool { return r.HedgeQuantile > 0 || r.HedgeDelay > 0 }

func (r *Resilience) maxHedges() int {
	if r.MaxHedges > 0 {
		return r.MaxHedges
	}
	return 1
}

func (r *Resilience) hedgeMinSamples() int {
	if r.HedgeMinSamples > 0 {
		return r.HedgeMinSamples
	}
	return 20
}

func (r *Resilience) fallback() model.Placement {
	if r.Fallback == model.PlaceUnknown {
		return model.PlaceLocal
	}
	return r.Fallback
}

// BreakerState is a circuit breaker's position.
type BreakerState int

// The classic three breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the lower-case state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("breaker-state(%d)", int(s))
}

// BreakerConfig parameterises a circuit breaker.
type BreakerConfig struct {
	// FailureThreshold consecutive transient failures open the breaker.
	FailureThreshold int
	// OpenFor is the cooldown before an open breaker admits a half-open
	// probe.
	OpenFor sim.Duration
	// HalfOpenSuccesses successful probes close the breaker (default 1);
	// any probe failure reopens it.
	HalfOpenSuccesses int

	// OpenBackoff multiplies the cooldown after each consecutive reopen (a
	// HalfOpen probe failure): the k-th reopen waits OpenFor·OpenBackoff^k,
	// capped at OpenForMax when that is positive. A persistently dark
	// backend is probed less and less often. Values <= 1 keep the fixed
	// OpenFor cooldown (the default behaviour).
	OpenBackoff float64
	OpenForMax  sim.Duration
}

// Validate reports whether the configuration is usable.
func (c BreakerConfig) Validate() error {
	switch {
	case c.FailureThreshold <= 0:
		return fmt.Errorf("sched: breaker failure threshold must be positive")
	case c.OpenFor <= 0:
		return fmt.Errorf("sched: breaker open-for duration must be positive")
	case c.HalfOpenSuccesses < 0:
		return fmt.Errorf("sched: negative breaker half-open successes")
	case c.OpenBackoff < 0 || c.OpenBackoff != c.OpenBackoff:
		return fmt.Errorf("sched: breaker open backoff %g not a non-negative number", c.OpenBackoff)
	case c.OpenForMax < 0:
		return fmt.Errorf("sched: negative breaker open-for cap")
	case c.OpenForMax > 0 && c.OpenForMax < c.OpenFor:
		return fmt.Errorf("sched: breaker open-for cap below open-for")
	}
	return nil
}

func (c BreakerConfig) halfOpenTarget() int {
	if c.HalfOpenSuccesses > 0 {
		return c.HalfOpenSuccesses
	}
	return 1
}

// Breaker is a consecutive-failure circuit breaker in simulation time:
// Closed trips to Open after FailureThreshold consecutive transient
// failures; Open refuses traffic for OpenFor, then admits a single
// half-open probe; probe success (HalfOpenSuccesses times) closes it,
// probe failure reopens it.
type Breaker struct {
	cfg       BreakerConfig
	state     BreakerState
	failures  int  // consecutive failures while closed
	successes int  // probe successes while half-open
	probing   bool // a half-open probe is in flight
	reopens   int  // consecutive reopens (HalfOpen probe failures)
	openedAt  sim.Time
	opens     uint64

	// notify, when set, observes every state transition. Purely
	// observational: the breaker's decisions do not depend on it.
	notify func(from, to BreakerState)
}

// OnTransition registers an observer for state transitions.
func (b *Breaker) OnTransition(fn func(from, to BreakerState)) { b.notify = fn }

func (b *Breaker) transition(to BreakerState) {
	from := b.state
	b.state = to
	if b.notify != nil && from != to {
		b.notify(from, to)
	}
}

// NewBreaker returns a breaker in the Closed state.
func NewBreaker(cfg BreakerConfig) (*Breaker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Breaker{cfg: cfg}, nil
}

// State returns the breaker's current position. Note that an elapsed
// cooldown only becomes visible as HalfOpen at the next Allow call.
func (b *Breaker) State() BreakerState { return b.state }

// Opens returns how many times the breaker tripped open.
func (b *Breaker) Opens() uint64 { return b.opens }

// Allow reports whether a dispatch may proceed at time now. An open
// breaker past its cooldown transitions to half-open and admits exactly
// one probe until that probe reports back.
func (b *Breaker) Allow(now sim.Time) bool {
	switch b.state {
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cooldown() {
			return false
		}
		b.transition(BreakerHalfOpen)
		b.successes = 0
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return true
	}
}

// OnSuccess records a successful attempt against the backend.
func (b *Breaker) OnSuccess() {
	switch b.state {
	case BreakerClosed:
		b.failures = 0
	case BreakerHalfOpen:
		b.probing = false
		b.successes++
		if b.successes >= b.cfg.halfOpenTarget() {
			b.transition(BreakerClosed)
			b.failures = 0
			b.reopens = 0
		}
	}
	// A success while Open comes from an attempt dispatched before the
	// trip; it says nothing about the backend now. Ignore it.
}

// OnFailure records a transient failure against the backend at time now.
func (b *Breaker) OnFailure(now sim.Time) {
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip(now)
		}
	case BreakerHalfOpen:
		b.probing = false
		b.reopens++
		b.trip(now)
	}
}

// trip opens the breaker with a fresh timer: the cooldown is measured
// from this failure, never from the original trip.
func (b *Breaker) trip(now sim.Time) {
	b.transition(BreakerOpen)
	b.openedAt = now
	b.failures = 0
	b.successes = 0
	b.opens++
}

// cooldown returns how long the current Open period refuses traffic:
// OpenFor, multiplied by OpenBackoff per consecutive reopen and capped at
// OpenForMax when configured.
func (b *Breaker) cooldown() sim.Duration {
	d := b.cfg.OpenFor
	if b.cfg.OpenBackoff <= 1 {
		return d
	}
	for i := 0; i < b.reopens && i < 62; i++ {
		d = sim.Duration(float64(d) * b.cfg.OpenBackoff)
		if max := b.cfg.OpenForMax; max > 0 && d >= max {
			return max
		}
	}
	return d
}

// taskState tracks one task through the resilience layer's attempt
// machinery until it settles and every attempt has drained. Records are
// recycled through the scheduler's freeTasks list with their timer
// callbacks bound once; see releaseTask for when a record may go back.
type taskState struct {
	s         *Scheduler
	task      *model.Task
	placement model.Placement // primary target; retries and hedges aim here

	inFlight int  // attempts whose outcome has not arrived yet
	pending  bool // a backoff timer was armed and none has fired since
	backoffs int  // backoff timers armed and not yet fired, stale ones included
	hedges   int  // hedge attempts launched
	hedgeEv  sim.EventRef

	settled bool          // winner holds the reported success
	winner  model.Outcome //
	failed  bool          // failure holds the terminal failure
	failure model.Outcome //
	done    bool          // finish() has run

	hedgeFn, retryFn func()
}

// attempt is one in-flight dispatch of a task, recycled through the
// scheduler's freeTries list with its callbacks bound once.
type attempt struct {
	s         *Scheduler
	st        *taskState
	placement model.Placement // actual target (fallback may differ)
	isHedge   bool
	abandoned bool // per-attempt timeout fired
	launched  sim.Time
	timeoutEv sim.EventRef
	traceID   uint64 // span handle when a tracer is attached

	timeoutFn func()
	doneFn    func(model.Outcome)
}

func (a *attempt) timeout()                 { a.s.onAttemptTimeout(a) }
func (a *attempt) finished(o model.Outcome) { a.s.onAttemptDone(a, o) }

// resilientDispatch is Dispatch when the resilience layer is on.
func (s *Scheduler) resilientDispatch(task *model.Task, placement model.Placement) {
	st, ok := s.inflight[task.ID]
	if !ok {
		st = s.freeTasks.Get()
		if st == nil {
			st = &taskState{s: s}
			st.hedgeFn, st.retryFn = st.hedge, st.retry
		}
		st.task, st.placement = task, placement
		s.inflight[task.ID] = st
	}
	s.launchAttempt(st, false)
}

// releaseTask returns a finished task's record to the free list. It runs
// once the task is done and its last backoff timer has fired: by then no
// attempt is in flight (done needs inFlight == 0, so every attempt's
// outcome arrived and its timeout fired or was cancelled) and the hedge
// timer was cancelled, so no event can reach the record again.
func (s *Scheduler) releaseTask(st *taskState) {
	*st = taskState{s: s, hedgeFn: st.hedgeFn, retryFn: st.retryFn}
	s.freeTasks.Put(st)
}

// releaseAttempt returns an attempt's record to the free list once its
// outcome has arrived: its timeout has fired or been cancelled by then.
func (s *Scheduler) releaseAttempt(a *attempt) {
	*a = attempt{s: s, timeoutFn: a.timeoutFn, doneFn: a.doneFn}
	s.freeTries.Put(a)
}

// breakerFor returns the breaker guarding a remote placement, creating it
// on first use, or nil when breakers are off or the placement is local.
func (s *Scheduler) breakerFor(p model.Placement) *Breaker {
	if s.res.Breaker == nil || p == model.PlaceLocal {
		return nil
	}
	if b, ok := s.breakers[p]; ok {
		return b
	}
	b, err := NewBreaker(*s.res.Breaker)
	if err != nil {
		panic(err) // config validated in New
	}
	b.OnTransition(func(from, to BreakerState) {
		if s.tr != nil {
			s.tr.BreakerTransition(p, from.String(), to.String(), s.env.Eng.Now())
		}
	})
	s.breakers[p] = b
	return b
}

// launchAttempt starts one attempt of st's task: breaker check (with
// fallback rerouting), per-attempt timeout, hedge timer, dispatch.
func (s *Scheduler) launchAttempt(st *taskState, isHedge bool) {
	target := st.placement
	if s.fo != nil {
		// Failover composes with resilience per attempt: an attempt aimed
		// at a down region re-points at a surviving one (paying the
		// state-transfer egress) before the breaker sees it.
		target = s.fo.retarget(st.task, target)
	}
	if br := s.breakerFor(target); br != nil && !br.Allow(s.env.Eng.Now()) {
		target = s.res.fallback()
		s.stats.Fallbacks++
	}
	a := s.freeTries.Get()
	if a == nil {
		a = &attempt{s: s}
		a.timeoutFn, a.doneFn = a.timeout, a.finished
	}
	a.st, a.placement, a.isHedge, a.launched = st, target, isHedge, s.env.Eng.Now()
	if s.tr != nil {
		a.traceID = s.tr.AttemptStart(st.task, target, isHedge, a.launched)
	}
	st.inFlight++
	if isHedge {
		st.hedges++
		s.stats.Hedges++
	}
	if to := s.res.AttemptTimeout; to > 0 && target != model.PlaceLocal {
		a.timeoutEv = s.env.Eng.After(to, a.timeoutFn)
	}
	s.maybeArmHedge(st)
	s.dispatchTo(st.task, target, a.doneFn)
}

// maybeArmHedge arms the duplicate-attempt timer if hedging is on, the
// primary target is remote, and the budget allows another hedge.
func (s *Scheduler) maybeArmHedge(st *taskState) {
	if !s.res.hedging() || st.placement == model.PlaceLocal ||
		st.hedgeEv.Scheduled() || st.settled || st.failed ||
		st.hedges >= s.res.maxHedges() {
		return
	}
	delay, ok := s.hedgeDelay()
	if !ok {
		return
	}
	st.hedgeEv = s.env.Eng.After(delay, st.hedgeFn)
}

// hedge fires st's hedge timer: one duplicate attempt, unless the task
// was decided or has nothing in flight to race against.
func (st *taskState) hedge() {
	st.hedgeEv = sim.EventRef{}
	if st.settled || st.failed || st.inFlight == 0 {
		return
	}
	st.s.launchAttempt(st, true)
}

// hedgeDelay returns how long to wait before hedging: the configured
// quantile of observed remote attempt latencies once enough samples
// exist, the fixed HedgeDelay before that.
func (s *Scheduler) hedgeDelay() (sim.Duration, bool) {
	if s.res.HedgeQuantile > 0 && s.attemptLat.Count() >= uint64(s.res.hedgeMinSamples()) {
		return sim.Duration(s.attemptLat.Quantile(s.res.HedgeQuantile)), true
	}
	if s.res.HedgeDelay > 0 {
		return s.res.HedgeDelay, true
	}
	return 0, false
}

// onAttemptTimeout abandons a straggling attempt: its eventual cost still
// counts, the breaker records a failure, and the task re-dispatches
// through the usual retry path (or fails terminally out of attempts).
func (s *Scheduler) onAttemptTimeout(a *attempt) {
	st := a.st
	a.timeoutEv = sim.EventRef{}
	if st.settled || st.failed || a.abandoned {
		return
	}
	a.abandoned = true
	s.stats.Timeouts++
	now := s.env.Eng.Now()
	if br := s.breakerFor(a.placement); br != nil {
		br.OnFailure(now)
	}
	if s.fo != nil {
		s.fo.observe(a.placement, true, ErrAttemptTimeout, now)
	}
	abandoned := model.Outcome{
		Task: st.task, Placement: a.placement,
		Started: st.task.Submitted, Finished: now,
		Exec:   model.ExecReport{Start: a.launched, End: now, Err: ErrAttemptTimeout},
		Failed: true,
	}
	if s.tr != nil {
		s.tr.AttemptEnd(a.traceID, abandoned, trace.StatusTimeout, now)
	}
	s.handleAttemptFailure(st, abandoned)
	s.settleIfDrained(st)
}

// onAttemptDone receives the real outcome of every dispatched attempt.
func (s *Scheduler) onAttemptDone(a *attempt, o model.Outcome) {
	st := a.st
	st.inFlight--
	if a.timeoutEv.Scheduled() {
		s.env.Eng.Cancel(a.timeoutEv)
		a.timeoutEv = sim.EventRef{}
	}
	br := s.breakerFor(a.placement)
	switch {
	case a.abandoned:
		// Already counted as a timeout failure; fold whatever the zombie
		// attempt cost. No breaker feedback: the timeout already reported.
		s.sunkUSD[st.task.ID] += o.CostUSD
		s.sunkMJ[st.task.ID] += o.EnergyMilliJ
		if s.tr != nil {
			s.tr.AttemptCost(a.traceID, o.CostUSD)
		}
	case st.settled || st.failed:
		// The task was decided while this attempt was in flight (a losing
		// hedge, or a late attempt after a terminal failure). Its cost
		// still counts, and its result is genuine backend feedback.
		s.sunkUSD[st.task.ID] += o.CostUSD
		s.sunkMJ[st.task.ID] += o.EnergyMilliJ
		s.breakerFeedback(br, o)
		s.foFeedback(a.placement, o)
		if s.tr != nil {
			status := trace.StatusLose
			if o.Failed {
				status = trace.StatusFailed
			}
			s.tr.AttemptEnd(a.traceID, o, status, s.env.Eng.Now())
		}
	case !o.Failed:
		if br != nil {
			br.OnSuccess()
		}
		s.foFeedback(a.placement, o)
		if a.placement != model.PlaceLocal {
			s.attemptLat.Observe(float64(s.env.Eng.Now().Sub(a.launched)))
		}
		if a.isHedge {
			s.stats.HedgeWins++
		}
		if s.tr != nil {
			s.tr.AttemptEnd(a.traceID, o, trace.StatusWin, s.env.Eng.Now())
		}
		st.settled = true
		st.winner = o
	default:
		s.breakerFeedback(br, o)
		s.foFeedback(a.placement, o)
		if s.tr != nil {
			status := trace.StatusFailed
			if s.shouldRetryErr(st.task, o.Exec.Err) {
				status = trace.StatusRetry
			}
			s.tr.AttemptEnd(a.traceID, o, status, s.env.Eng.Now())
		}
		s.handleAttemptFailure(st, o)
	}
	s.releaseAttempt(a)
	s.settleIfDrained(st)
}

// breakerFeedback translates a genuine attempt completion into breaker
// signals: transient failures count against the backend; everything else
// (success, or a task-caused error like out-of-memory) proves the backend
// responded and counts as success — crucially, this cannot wedge a
// half-open probe.
func (s *Scheduler) breakerFeedback(br *Breaker, o model.Outcome) {
	if br == nil {
		return
	}
	if o.Failed && model.Transient(o.Exec.Err) {
		br.OnFailure(s.env.Eng.Now())
		return
	}
	br.OnSuccess()
}

// foFeedback forwards one genuine attempt completion to the failover
// health tracker, which applies its own transient/other classification.
func (s *Scheduler) foFeedback(p model.Placement, o model.Outcome) {
	if s.fo == nil {
		return
	}
	s.fo.observe(p, o.Failed, o.Exec.Err, s.env.Eng.Now())
}

// handleAttemptFailure retries a transient failure with backoff, or marks
// the task's terminal failure. Extra failures after the terminal one fold
// into the sunk totals.
func (s *Scheduler) handleAttemptFailure(st *taskState, o model.Outcome) {
	if s.shouldRetryErr(st.task, o.Exec.Err) {
		n := s.attempts[st.task.ID] + 1
		s.attempts[st.task.ID] = n
		s.sunkUSD[st.task.ID] += o.CostUSD
		s.sunkMJ[st.task.ID] += o.EnergyMilliJ
		s.stats.Retries++
		st.pending = true
		st.backoffs++
		s.env.Eng.After(s.retryDelay(n), st.retryFn)
		return
	}
	if st.failed {
		s.sunkUSD[st.task.ID] += o.CostUSD
		s.sunkMJ[st.task.ID] += o.EnergyMilliJ
		return
	}
	st.failed = true
	st.failure = o
}

// retry fires one of st's backoff timers: re-dispatch, or settle a task
// decided meanwhile. Two attempts failing close together arm two timers,
// and the task can settle between them (pending is one flag), so a timer
// may fire after finish: then it only releases the record if it was the
// last one armed.
func (st *taskState) retry() {
	s := st.s
	st.backoffs--
	st.pending = false
	if st.done {
		if st.backoffs == 0 {
			s.releaseTask(st)
		}
		return
	}
	if st.settled || st.failed {
		s.settleIfDrained(st)
		return
	}
	s.launchAttempt(st, false)
}

// settleIfDrained reports the task's outcome once it is decided and no
// attempt or re-dispatch timer remains, so every attempt's cost lands in
// the reported totals exactly once.
func (s *Scheduler) settleIfDrained(st *taskState) {
	if st.done || st.inFlight > 0 || st.pending || (!st.settled && !st.failed) {
		return
	}
	st.done = true
	if st.hedgeEv.Scheduled() {
		s.env.Eng.Cancel(st.hedgeEv)
		st.hedgeEv = sim.EventRef{}
		if s.tr != nil {
			s.tr.HedgeCanceled(st.task.ID, s.env.Eng.Now())
		}
	}
	delete(s.inflight, st.task.ID)
	o := st.failure
	if st.settled {
		o = st.winner
	}
	// The record goes back before finish runs: its hooks may submit a
	// task that reuses it.
	if st.backoffs == 0 {
		s.releaseTask(st)
	}
	s.finish(o)
}
