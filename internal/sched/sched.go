// Package sched contains the offloading decision engine: placement
// policies (the static baselines and the framework's deadline-aware
// cost-minimising policy), demand predictors, the per-application
// serverless function pool, and the online scheduler that moves each task
// through its uplink → execute → downlink lifecycle inside the simulation.
package sched

import (
	"fmt"
	"math"

	"offload/internal/cloudvm"
	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sim"
	"offload/internal/trace"
)

// Env bundles the substrates available to a scheduler. Device is
// mandatory; every remote substrate is optional but must come with its
// network path.
type Env struct {
	Eng    *sim.Engine
	Device *device.Device

	Edge     *edge.Cluster
	EdgePath *network.Path

	Functions *FunctionPool
	CloudPath *network.Path

	VM *cloudvm.Fleet
	// VMPath defaults to CloudPath when nil: VMs live in the same region.
	VMPath *network.Path

	// Remote, when non-nil, intercepts remote EXECUTION only: instead of
	// invoking the substrate executor on this engine, dispatchTo hands
	// (task, placement, predicted cycles, completion callback) to Remote.
	// The sharded fleet (core.ShardedFleet) uses this to run the network
	// transfer legs on the UE's shard engine while the substrate executes
	// on the hub engine across the conservative barrier. Reads — policy
	// decisions, queue lengths, estimates, Available — still go straight
	// at the substrate pointers above, which the sharded runtime keeps
	// quiescent while shard code runs.
	Remote RemoteBackends
}

// RemoteBackends executes one remote attempt on behalf of the scheduler.
// predictedCycles is the scheduler's demand estimate at dispatch time,
// captured on the shard so the hub-side function pool sizes instances
// exactly as the serial path would. done must eventually be invoked with
// the execution report; the implementation decides on which engine.
type RemoteBackends interface {
	Execute(task *model.Task, placement model.Placement, predictedCycles float64, done func(model.ExecReport))
}

// Validate reports whether the environment is coherent.
func (e *Env) Validate() error {
	switch {
	case e == nil || e.Eng == nil:
		return fmt.Errorf("sched: environment without engine")
	case e.Device == nil:
		return fmt.Errorf("sched: environment without device")
	case e.Edge != nil && e.EdgePath == nil:
		return fmt.Errorf("sched: edge cluster without edge path")
	case e.Functions != nil && e.CloudPath == nil:
		return fmt.Errorf("sched: serverless pool without cloud path")
	case e.VM != nil && e.VMPath == nil && e.CloudPath == nil:
		return fmt.Errorf("sched: VM fleet without any cloud path")
	}
	return nil
}

// vmPath returns the path used to reach the VM fleet.
func (e *Env) vmPath() *network.Path {
	if e.VMPath != nil {
		return e.VMPath
	}
	return e.CloudPath
}

// Available lists the placements this environment can serve.
func (e *Env) Available() []model.Placement {
	out := []model.Placement{model.PlaceLocal}
	if e.Edge != nil {
		out = append(out, model.PlaceEdge)
	}
	if e.Functions != nil {
		out = append(out, model.PlaceFunction)
	}
	if e.VM != nil {
		out = append(out, model.PlaceVM)
	}
	return out
}

// Scheduler drives tasks through the environment under one policy.
type Scheduler struct {
	env          *Env
	policy       Policy
	pred         Predictor
	stats        Stats
	onDone       func(model.Outcome)
	afterTask    map[model.TaskID]func(model.Outcome)
	retry        RetryPolicy
	src          *rng.Source // backoff jitter; nil disables jitter
	dvfsMinScale float64     // 0 disables per-task DVFS
	attempts     map[model.TaskID]int
	// sunk accumulates money and energy spent by failed attempts so the
	// final outcome reports the true total.
	sunkUSD map[model.TaskID]float64
	sunkMJ  map[model.TaskID]float64

	// Resilience layer (nil when disabled): per-task attempt state, whose
	// task and attempt records recycle through freeTasks and freeTries, one
	// circuit breaker per remote placement, and the latency histogram the
	// hedging delay quantile is computed from.
	res        *Resilience
	inflight   map[model.TaskID]*taskState
	breakers   map[model.Placement]*Breaker
	attemptLat *metrics.Histogram
	freeTasks  sim.FreeList[taskState]
	freeTries  sim.FreeList[attempt]

	// Regional failover layer (nil when disabled): per-region health
	// tracking, re-homing and the graceful-degradation ladder.
	fo *failover

	// freeAttempts holds finished remote-attempt records for reuse, and
	// finishFn is s.finish, bound on the first untraced plain dispatch.
	freeAttempts sim.FreeList[remoteAttempt]
	finishFn     func(model.Outcome)

	// tr receives causal hook points (attempt lifecycle, breaker
	// transitions, hedge cancels, task settlement) when span tracing is
	// enabled. Tracers are passive: they record, never steer — dispatch
	// takes the same decisions with or without one.
	tr trace.Tracer
}

// RetryPolicy re-dispatches tasks that failed with a transient
// infrastructure error. MaxAttempts counts all tries (1 disables retries);
// Backoff delays each re-dispatch and doubles per attempt, capped at
// MaxBackoff (zero leaves it uncapped). With FullJitter the delay is drawn
// uniformly from [0, backoff) using the scheduler's rng stream, which
// decorrelates retry stampedes without losing determinism.
type RetryPolicy struct {
	MaxAttempts int
	Backoff     sim.Duration
	MaxBackoff  sim.Duration
	FullJitter  bool
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithOutcomeHook registers fn to receive every completed outcome, for
// tracing or custom aggregation.
func WithOutcomeHook(fn func(model.Outcome)) Option {
	return func(s *Scheduler) { s.onDone = fn }
}

// WithRetries enables transparent retries of transient failures.
func WithRetries(rp RetryPolicy) Option {
	return func(s *Scheduler) { s.retry = rp }
}

// WithRNG gives the scheduler its own random stream, used for retry
// backoff jitter. Without one, FullJitter is silently disabled.
func WithRNG(src *rng.Source) Option {
	return func(s *Scheduler) { s.src = src }
}

// WithResilience enables the client-side resilience layer: per-attempt
// timeouts, hedged requests, per-backend circuit breakers and fallback
// execution while a breaker is open. See Resilience.
func WithResilience(r Resilience) Option {
	return func(s *Scheduler) { s.res = &r }
}

// WithTracer attaches a span tracer to the scheduler. Equivalent to
// calling SetTracer before the first Submit.
func WithTracer(t trace.Tracer) Option {
	return func(s *Scheduler) { s.tr = t }
}

// SetTracer attaches (or detaches, with nil) the tracer receiving the
// scheduler's causal hook points. Call before the first Submit: attempts
// already in flight keep reporting to the tracer they started with.
func (s *Scheduler) SetTracer(t trace.Tracer) { s.tr = t }

// Tracer returns the attached tracer, or nil.
func (s *Scheduler) Tracer() trace.Tracer { return s.tr }

// WithLocalDVFS makes local executions of deadline-carrying tasks run at
// the slowest frequency that still meets the deadline (floored at
// minScale), instead of racing to idle at full speed. Delay-tolerant
// tasks without a deadline run at minScale. Energy scales with frequency,
// so this is the local-execution analogue of offloading's cost savings.
func WithLocalDVFS(minScale float64) Option {
	return func(s *Scheduler) { s.dvfsMinScale = minScale }
}

// New returns a scheduler. It errors on an incoherent environment or a
// policy that targets a substrate the environment lacks.
func New(env *Env, policy Policy, pred Predictor, opts ...Option) (*Scheduler, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("sched: nil policy")
	}
	if pred == nil {
		pred = Exact{}
	}
	s := &Scheduler{env: env, policy: policy, pred: pred,
		afterTask: make(map[model.TaskID]func(model.Outcome)),
		attempts:  make(map[model.TaskID]int),
		sunkUSD:   make(map[model.TaskID]float64),
		sunkMJ:    make(map[model.TaskID]float64)}
	s.stats.init()
	for _, o := range opts {
		o(s)
	}
	if s.res != nil {
		if err := s.res.Validate(); err != nil {
			return nil, err
		}
		s.inflight = make(map[model.TaskID]*taskState)
		s.breakers = make(map[model.Placement]*Breaker)
		s.attemptLat = metrics.NewLatencyHistogram()
	}
	if s.fo != nil {
		if err := s.initFailover(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Policy returns the scheduler's policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// Env returns the environment the scheduler dispatches into. Callers that
// plan placements ahead of dispatch (the DAG rank placer) read substrate
// estimates through it; they must not mutate it.
func (s *Scheduler) Env() *Env { return s.env }

// Predictor returns the scheduler's demand predictor, so precedence-aware
// planners price nodes with the same estimates dispatch will use.
func (s *Scheduler) Predictor() Predictor { return s.pred }

// Stats returns the accumulated statistics.
func (s *Scheduler) Stats() *Stats { return &s.stats }

// InFlight returns tasks submitted but not yet settled. Zero when the
// resilience layer is disabled (plain dispatch tracks no task state).
func (s *Scheduler) InFlight() int { return len(s.inflight) }

// OpenBreakers returns how many per-backend circuit breakers are not in
// the Closed state right now (Open or HalfOpen), or 0 when the resilience
// layer is disabled.
func (s *Scheduler) OpenBreakers() int {
	n := 0
	for _, b := range s.breakers {
		if b.State() != BreakerClosed {
			n++
		}
	}
	return n
}

// BreakerOpens returns the total number of breaker trips across all
// backends so far.
func (s *Scheduler) BreakerOpens() uint64 {
	var n uint64
	for _, b := range s.breakers {
		n += b.Opens()
	}
	return n
}

// Submit routes one task according to the policy. The outcome lands in
// Stats (and the outcome hook) when the task's results are back on the
// device.
func (s *Scheduler) Submit(task *model.Task) {
	if err := task.Validate(); err != nil {
		s.finish(model.Outcome{Task: task, Started: s.env.Eng.Now(), Finished: s.env.Eng.Now(), Failed: true})
		return
	}
	task.Submitted = s.env.Eng.Now()
	placement := s.policy.Decide(task, s.env, s.pred)
	s.Dispatch(task, placement)
}

// SubmitThen routes the task per the policy and invokes then exactly once
// with its final outcome, after the global outcome hook. The serve path
// uses this to answer a caller waiting on one specific task. A task that
// fails validation settles immediately, so then still fires.
func (s *Scheduler) SubmitThen(task *model.Task, then func(model.Outcome)) {
	if then != nil {
		s.afterTask[task.ID] = then
	}
	s.Submit(task)
}

// ChainOutcomeHook appends fn behind the outcome hook already installed
// (if any): every settled task reaches both. Call before the first
// Submit; the serve layer chains its accounting hook after core's
// recorder this way without disturbing existing wiring.
func (s *Scheduler) ChainOutcomeHook(fn func(model.Outcome)) {
	if fn == nil {
		return
	}
	prev := s.onDone
	if prev == nil {
		s.onDone = fn
		return
	}
	s.onDone = func(o model.Outcome) {
		prev(o)
		fn(o)
	}
}

// Dispatch runs the task at an explicit placement, bypassing the policy.
// The Batcher uses this to realise its own placement decisions. With the
// resilience layer enabled the placement becomes the task's primary
// target, subject to breaker rerouting, hedging and retries. With the
// failover layer enabled the dispatch is first routed: a down region's
// tasks re-home, park or localize per the degradation ladder.
func (s *Scheduler) Dispatch(task *model.Task, placement model.Placement) {
	if s.fo != nil {
		s.fo.route(task, placement)
		return
	}
	s.dispatchDirect(task, placement)
}

// dispatchDirect is Dispatch past the failover routing decision: the
// resilience machinery, or one traced plain attempt.
func (s *Scheduler) dispatchDirect(task *model.Task, placement model.Placement) {
	if s.res != nil {
		s.resilientDispatch(task, placement)
		return
	}
	if s.tr == nil {
		if s.finishFn == nil {
			s.finishFn = s.finish
		}
		s.dispatchTo(task, placement, s.finishFn)
		return
	}
	aid := s.tr.AttemptStart(task, placement, false, s.env.Eng.Now())
	s.dispatchTo(task, placement, func(o model.Outcome) {
		s.tr.AttemptEnd(aid, o, s.plainStatus(o), s.env.Eng.Now())
		s.finish(o)
	})
}

// plainStatus classifies a non-resilient attempt's ending the same way
// finish is about to: a failure either consumes a retry or is terminal.
func (s *Scheduler) plainStatus(o model.Outcome) string {
	switch {
	case !o.Failed:
		return trace.StatusWin
	case s.shouldRetry(o):
		return trace.StatusRetry
	default:
		return trace.StatusFailed
	}
}

// dispatchTo runs one attempt of the task at the placement and reports
// its outcome to done.
func (s *Scheduler) dispatchTo(task *model.Task, placement model.Placement, done func(model.Outcome)) {
	switch placement {
	case model.PlaceLocal:
		s.runLocal(task, done)
	case model.PlaceEdge:
		if s.env.Edge == nil {
			s.fail(task, placement, done)
			return
		}
		if s.env.Remote != nil {
			s.runRemoteShared(task, placement, s.env.EdgePath, done)
			return
		}
		s.runRemote(task, placement, s.env.Edge, 0, s.env.EdgePath, done)
	case model.PlaceFunction:
		if s.env.Functions == nil {
			s.fail(task, placement, done)
			return
		}
		if s.env.Remote != nil {
			// Pool deploy/resize mutates shared state, so it happens on the
			// hub (inside Remote.Execute), not here on the shard.
			s.runRemoteShared(task, placement, s.env.CloudPath, done)
			return
		}
		fn, err := s.env.Functions.For(task, s.pred)
		if err != nil {
			s.fail(task, placement, done)
			return
		}
		s.runRemote(task, placement, fn, 0, s.env.CloudPath, done)
	case model.PlaceVM:
		if s.env.VM == nil {
			s.fail(task, placement, done)
			return
		}
		if s.env.Remote != nil {
			s.runRemoteShared(task, placement, s.env.vmPath(), done)
			return
		}
		s.runRemote(task, placement, s.env.VM, 0, s.env.vmPath(), done)
	default:
		s.fail(task, placement, done)
	}
}

// runRemoteShared is runRemote with execution routed through env.Remote.
// The demand prediction is captured here, at dispatch time on the shard,
// so the hub sizes serverless instances with exactly the estimate the
// serial path would have used.
func (s *Scheduler) runRemoteShared(task *model.Task, placement model.Placement, path *network.Path, done func(model.Outcome)) {
	s.runRemote(task, placement, nil, s.pred.PredictCycles(task), path, done)
}

func (s *Scheduler) fail(task *model.Task, placement model.Placement, done func(model.Outcome)) {
	now := s.env.Eng.Now()
	done(model.Outcome{
		Task: task, Placement: placement,
		Started: task.Submitted, Finished: now, Failed: true,
	})
}

func (s *Scheduler) runLocal(task *model.Task, done func(model.Outcome)) {
	start := task.Submitted
	dev := s.env.Device
	// Default to the device-wide DVFS setting; per-task DVFS overrides it.
	scale := dev.EffectiveHz() / dev.Config().CPUHz
	if s.dvfsMinScale > 0 {
		scale = s.dvfsScale(task)
	}
	// Energy at the chosen frequency: P ∝ f², t ∝ 1/f ⇒ E ∝ f.
	energy := dev.Config().ActivePowerW * scale * task.Cycles / dev.Config().CPUHz * 1000
	dev.ExecuteScaled(task, scale, func(rep model.ExecReport) {
		o := model.Outcome{
			Task:      task,
			Placement: model.PlaceLocal,
			Started:   start,
			Finished:  s.env.Eng.Now(),
			Exec:      rep,
			Failed:    rep.Err != nil,
		}
		if rep.Err == nil {
			o.EnergyMilliJ = energy
		}
		done(o)
	})
}

// dvfsScale picks the slowest frequency that still meets the task's
// deadline with a 20% safety margin; tasks without deadlines run at the
// floor.
func (s *Scheduler) dvfsScale(task *model.Task) float64 {
	minScale := s.dvfsMinScale
	if minScale > 1 {
		minScale = 1
	}
	if !task.HasDeadline() {
		return minScale
	}
	budget := float64(task.Deadline) * 0.8
	if budget <= 0 {
		return 1
	}
	needed := task.Cycles / (s.env.Device.Config().CPUHz * budget)
	switch {
	case needed >= 1:
		return 1
	case needed < minScale:
		return minScale
	default:
		return needed
	}
}

// runRemote runs one uplink → execute → downlink attempt and reports its
// outcome to done. A nil exec routes execution through env.Remote with
// the predicted demand.
func (s *Scheduler) runRemote(task *model.Task, placement model.Placement, exec model.Executor, predicted float64, path *network.Path, done func(model.Outcome)) {
	a := s.freeAttempts.Get()
	if a == nil {
		a = &remoteAttempt{s: s}
		a.uplinkFn, a.execFn, a.downlinkFn = a.uplink, a.executed, a.downlink
	}
	a.exec, a.predicted, a.path, a.done = exec, predicted, path, done
	a.o = model.Outcome{Task: task, Placement: placement, Started: task.Submitted}
	path.Transfer(task.InputBytes, network.Uplink, a.uplinkFn)
}

// remoteAttempt is one runRemote in flight, recycled through the
// scheduler's free list with its callbacks bound once.
type remoteAttempt struct {
	s         *Scheduler
	exec      model.Executor
	predicted float64
	path      *network.Path
	done      func(model.Outcome)
	o         model.Outcome

	uplinkFn, downlinkFn func(network.Report)
	execFn               func(model.ExecReport)
}

func (a *remoteAttempt) uplink(up network.Report) {
	a.o.UplinkTime = up.Duration()
	a.o.EnergyMilliJ += a.s.env.Device.RadioEnergyMilliJ(up.Duration(), true)
	if a.exec == nil {
		a.s.env.Remote.Execute(a.o.Task, a.o.Placement, a.predicted, a.execFn)
		return
	}
	a.exec.Execute(a.o.Task, a.execFn)
}

func (a *remoteAttempt) executed(rep model.ExecReport) {
	a.o.Exec = rep
	a.o.CostUSD += rep.CostUSD
	if rep.Err != nil {
		a.o.Failed = true
		a.o.Finished = a.s.env.Eng.Now()
		a.finish()
		return
	}
	a.path.Transfer(a.o.Task.OutputBytes, network.Downlink, a.downlinkFn)
}

func (a *remoteAttempt) downlink(down network.Report) {
	a.o.DownlinkTime = down.Duration()
	a.o.EnergyMilliJ += a.s.env.Device.RadioEnergyMilliJ(down.Duration(), false)
	a.o.Finished = a.s.env.Eng.Now()
	a.finish()
}

// finish returns the record to the free list before calling done, which
// may start the next attempt on the same record.
func (a *remoteAttempt) finish() {
	o, done := a.o, a.done
	a.o, a.exec, a.path, a.done = model.Outcome{}, nil, nil, nil
	a.s.freeAttempts.Put(a)
	done(o)
}

// DispatchThen runs the task at an explicit placement and invokes then
// once the outcome is recorded, in addition to the scheduler-wide hook.
func (s *Scheduler) DispatchThen(task *model.Task, placement model.Placement, then func(model.Outcome)) {
	if then != nil {
		s.afterTask[task.ID] = then
	}
	s.Dispatch(task, placement)
}

func (s *Scheduler) finish(o model.Outcome) {
	// Plain-path attempts report their outcome here once each, so this is
	// where the failover health tracker hears about them. The resilience
	// path feeds per attempt from onAttemptDone/onAttemptTimeout instead.
	if s.fo != nil && s.res == nil && o.Task != nil {
		s.fo.observe(o.Placement, o.Failed, o.Exec.Err, s.env.Eng.Now())
	}
	if o.Task != nil && o.Failed && s.res == nil && s.shouldRetry(o) {
		n := s.attempts[o.Task.ID] + 1
		s.attempts[o.Task.ID] = n
		s.sunkUSD[o.Task.ID] += o.CostUSD
		s.sunkMJ[o.Task.ID] += o.EnergyMilliJ
		s.stats.Retries++
		task, placement := o.Task, o.Placement
		s.env.Eng.After(s.retryDelay(n), func() { s.Dispatch(task, placement) })
		return
	}
	if o.Task != nil {
		o.Attempts = s.attempts[o.Task.ID] + 1
		o.CostUSD += s.sunkUSD[o.Task.ID]
		o.EnergyMilliJ += s.sunkMJ[o.Task.ID]
		delete(s.attempts, o.Task.ID)
		delete(s.sunkUSD, o.Task.ID)
		delete(s.sunkMJ, o.Task.ID)
	}
	if o.Task != nil && !o.Failed {
		s.pred.Observe(o.Task, o.Task.Cycles)
	}
	if fp, ok := s.policy.(FeedbackPolicy); ok {
		fp.ObserveOutcome(o, s.env)
	}
	s.stats.record(o)
	if s.tr != nil {
		s.tr.TaskDone(o, s.env.Eng.Now())
	}
	if s.onDone != nil {
		s.onDone(o)
	}
	if o.Task != nil {
		if cb, ok := s.afterTask[o.Task.ID]; ok {
			delete(s.afterTask, o.Task.ID)
			cb(o)
		}
	}
}

// shouldRetry reports whether the failed outcome is worth another try:
// a transient infrastructure error with attempts remaining.
func (s *Scheduler) shouldRetry(o model.Outcome) bool {
	return s.shouldRetryErr(o.Task, o.Exec.Err)
}

func (s *Scheduler) shouldRetryErr(task *model.Task, err error) bool {
	if s.retry.MaxAttempts <= 1 {
		return false
	}
	if !model.Transient(err) {
		return false
	}
	return s.attempts[task.ID]+1 < s.retry.MaxAttempts
}

// retryDelay returns the backoff before re-dispatching attempt n+1 (n
// failures so far): Backoff·2^(n-1), exponent capped so it cannot
// overflow, clamped to MaxBackoff, with optional full jitter.
func (s *Scheduler) retryDelay(n int) sim.Duration {
	shift := n - 1
	if shift > 30 {
		shift = 30
	}
	d := float64(s.retry.Backoff) * math.Ldexp(1, shift)
	if mb := float64(s.retry.MaxBackoff); mb > 0 && d > mb {
		d = mb
	}
	if s.retry.FullJitter && s.src != nil {
		d = s.src.Uniform(0, d)
	}
	return sim.Duration(d)
}
