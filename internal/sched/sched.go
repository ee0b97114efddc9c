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

	// VM is reached over CloudPath: VMs live in the serverless region.
	VM *cloudvm.Fleet

	// Remote, when non-nil, intercepts remote EXECUTION only: instead of
	// invoking the substrate executor on this engine, the attempt hands
	// its record (task, placement, predicted cycles) to Remote.
	// The sharded fleet (core.ShardedFleet) uses this to run the network
	// transfer legs on the UE's shard engine while the substrate executes
	// on the hub engine across the conservative barrier. Reads — policy
	// decisions, queue lengths, estimates, Available — still go straight
	// at the substrate pointers above, which the sharded runtime keeps
	// quiescent while shard code runs.
	Remote RemoteBackends

	// Events is the UE's lifecycle stream. The scheduler, its failover
	// layer, the adaptive controller and the DAG orchestrator emit into
	// it; the budget, the controller and every recorder subscribe.
	Events trace.Stream

	// Tasks is the free list of the engine's tasks, shared by every UE on
	// Eng: streams draw from it and the scheduler releases each pooled
	// task into it once the task has settled. Nil allocates every task.
	Tasks *model.TaskPool

	// Attempts is the pool of the engine's remote-attempt records, shared
	// by every UE on Eng like Tasks. New gives an environment without one
	// a pool of its own.
	Attempts *AttemptPool

	// The first nAvailable entries of available are Available's answer,
	// fixed when a scheduler is built on the environment. An array, not
	// a slice, so building a UE's scheduler allocates nothing for it.
	available  [model.NumPlacements - 1]model.Placement // every placement but PlaceUnknown
	nAvailable int
}

// RemoteBackends executes one remote attempt on behalf of the scheduler.
// The record carries the task, the placement and the scheduler's demand
// estimate at dispatch time, captured on the shard so the hub-side
// function pool sizes instances exactly as the serial path would. The
// implementation must eventually pass the execution report to the
// record's Resume and run the continuation it returns on the record's
// engine.
type RemoteBackends interface {
	Execute(a *RemoteAttempt)
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
	case e.VM != nil && e.CloudPath == nil:
		return fmt.Errorf("sched: VM fleet without cloud path")
	}
	return nil
}

// Available lists the placements this environment can serve, in
// canonical order. Once a scheduler is built on the environment the list
// is fixed and shared, so callers must not modify it; attach substrates
// before calling New.
func (e *Env) Available() []model.Placement {
	if e.nAvailable > 0 {
		return e.available[:e.nAvailable:e.nAvailable]
	}
	return e.placements(make([]model.Placement, 0, len(e.available)))
}

// placements appends the placements the environment serves to out.
func (e *Env) placements(out []model.Placement) []model.Placement {
	for p := model.PlaceLocal; p < model.NumPlacements; p++ {
		if e.Serves(p) {
			out = append(out, p)
		}
	}
	return out
}

// The environment is the one place that resolves a placement: whether it
// is served, the network path that reaches it, the substrate that
// executes there, and what a task would cost there. Schedulers, policies,
// planners and the sharded hub all read these instead of matching
// placements to substrates themselves.

// Serves reports whether the environment can run tasks at p. Local is
// always served: the device is mandatory.
func (e *Env) Serves(p model.Placement) bool {
	switch p {
	case model.PlaceLocal:
		return true
	case model.PlaceEdge:
		return e.Edge != nil
	case model.PlaceFunction:
		return e.Functions != nil
	case model.PlaceVM:
		return e.VM != nil
	}
	return false
}

// Path returns the network path a task crosses to reach p, or nil when p
// is local or not served. VMs live in the serverless region, so they
// share the cloud path with functions.
func (e *Env) Path(p model.Placement) *network.Path {
	switch {
	case !e.Serves(p):
		return nil
	case p == model.PlaceEdge:
		return e.EdgePath
	case p == model.PlaceFunction, p == model.PlaceVM:
		return e.CloudPath
	}
	return nil
}

// Executor returns the remote substrate that runs the task at p. For
// serverless that is the app's function, which the pool deploys or
// resizes from pred's demand estimate: pred is drawn exactly once. Local
// execution is the scheduler's own (it sets the device's frequency), so
// p must be remote.
func (e *Env) Executor(p model.Placement, task *model.Task, pred Predictor) (model.Executor, error) {
	switch {
	case p == model.PlaceLocal || !e.Serves(p):
		return nil, fmt.Errorf("sched: no remote substrate serves placement %v", p)
	case p == model.PlaceEdge:
		return e.Edge, nil
	case p == model.PlaceVM:
		return e.VM, nil
	}
	fn, err := e.Functions.For(task, pred)
	if err != nil {
		return nil, err
	}
	return fn, nil
}

// Estimate is what running one task at one placement would take, priced
// from public substrate estimates without reserving anything. Transfer
// terms are zero for local execution.
type Estimate struct {
	Up, Exec, Down float64 // seconds: uplink airtime, execution, downlink airtime
	Queue          float64 // factor the placement's current backlog stretches Exec by
	EnergyJ        float64 // device energy: compute when local, radio when remote
	MoneyUSD       float64 // execution spend, amortised for edge and VM
	OK             bool    // the placement can serve the task
}

// Time is the end-to-end estimate under the placement's current backlog.
func (e Estimate) Time() float64 { return e.Up + e.Exec*e.Queue + e.Down }

// Estimate prices the task at p. The task's Cycles is the demand to price
// (a prediction, not the truth); sizes, memory and deadline are the
// task's own. An unserved placement is not OK.
func (e *Env) Estimate(p model.Placement, task *model.Task) Estimate {
	if p == model.PlaceLocal {
		dev := e.Device
		return Estimate{
			Exec:    float64(dev.ExecTime(task)),
			Queue:   float64(dev.Backlog())/float64(dev.Config().Cores) + 1,
			EnergyJ: dev.ComputeEnergyMilliJ(task) / 1000,
			OK:      !dev.Dead(),
		}
	}
	path := e.Path(p)
	if path == nil {
		return Estimate{}
	}
	est := Estimate{
		Up:    float64(path.EstimateTransfer(task.InputBytes, network.Uplink)),
		Down:  float64(path.EstimateTransfer(task.OutputBytes, network.Downlink)),
		Queue: 1,
		OK:    true,
	}
	switch p {
	case model.PlaceEdge:
		cfg := e.Edge.Config()
		cores := cfg.Servers * cfg.Cores
		est.Exec = float64(e.Edge.ExecTime(task))
		est.Queue = float64(e.Edge.QueueLen())/float64(cores) + 1
		// Amortised infrastructure attribution: the core-seconds this
		// task occupies, priced at the site's hourly cost.
		est.MoneyUSD = est.Exec * cfg.HourlyCostUSD / (3600 * float64(cores))
		est.OK = cfg.MemoryPerServer == 0 || task.MemoryBytes <= cfg.MemoryPerServer
	case model.PlaceFunction:
		dec, err := e.Functions.EstimateFor(task, task.Cycles)
		est.Exec = float64(dec.ExpectedTime)
		est.MoneyUSD = dec.ExpectedCostUSD
		est.OK = err == nil
	case model.PlaceVM:
		cfg := e.VM.Config()
		est.Exec = float64(e.VM.ExecTime(task))
		if cores := e.VM.Instances() * cfg.Cores; cores > 0 {
			est.Queue = float64(e.VM.QueueLen())/float64(cores) + 1
		}
		est.MoneyUSD = est.Exec * cfg.HourlyCostUSD / (3600 * float64(cfg.Cores))
	}
	dev := e.Device.Config()
	est.EnergyJ = dev.TxPowerW*est.Up + dev.RxPowerW*est.Down
	return est
}

// Scheduler drives tasks through the environment under one policy.
type Scheduler struct {
	env          *Env
	policy       Policy
	pred         Predictor
	stats        Stats
	afterTask    map[model.TaskID]func(model.Outcome)
	retry        RetryPolicy
	dvfsMinScale float64                      // 0 disables per-task DVFS
	ledger       map[model.TaskID]retryLedger // tasks with retries or sunk spend, until they settle

	// Resilience layer (nil when disabled): per-task attempt state, whose
	// task and attempt records recycle through freeTasks and freeTries, one
	// circuit breaker per served remote placement (nil elsewhere), and the
	// latency histogram the hedging delay quantile is computed from.
	res        *Resilience
	inflight   map[model.TaskID]*taskState
	breakers   [model.NumPlacements]*Breaker
	attemptLat *metrics.Histogram
	freeTasks  sim.FreeList[*taskState]
	freeTries  sim.FreeList[*attempt]

	// Regional failover layer (nil when disabled): per-region health
	// tracking, re-homing and the graceful-degradation ladder.
	fo *failover

	// plainDoneFn is s.plainDone, bound on the first plain dispatch.
	plainDoneFn func(model.Outcome)
}

// retryLedger is what a task's earlier attempts left behind until it
// settles: the failures that consumed a retry, and the money and device
// energy that failed, abandoned or losing attempts spent, so the final
// outcome reports the true totals.
type retryLedger struct {
	retries int
	usd, mj float64
}

// spend adds what one more attempt of the task cost to its ledger.
func (s *Scheduler) spend(id model.TaskID, usd, mj float64) {
	l := s.ledger[id]
	l.usd += usd
	l.mj += mj
	s.ledger[id] = l
}

// retried records that the failed outcome consumes a retry of its task,
// adds its spend, and returns how many retries the task has used.
func (s *Scheduler) retried(o model.Outcome) int {
	l := s.ledger[o.Task.ID]
	l.retries++
	l.usd += o.CostUSD
	l.mj += o.EnergyMilliJ
	s.ledger[o.Task.ID] = l
	s.stats.Retries++
	return l.retries
}

// RetryPolicy re-dispatches tasks that failed with a transient
// infrastructure error. MaxAttempts counts all tries (1 disables retries);
// Backoff delays each re-dispatch and doubles per attempt, capped at
// MaxBackoff (zero leaves it uncapped). With a Jitter stream the delay is
// drawn uniformly from [0, backoff), which decorrelates retry stampedes
// without losing determinism; a nil Jitter means no jitter.
type RetryPolicy struct {
	MaxAttempts int
	Backoff     sim.Duration
	MaxBackoff  sim.Duration
	Jitter      *rng.Source
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithRetries enables transparent retries of transient failures.
func WithRetries(rp RetryPolicy) Option {
	return func(s *Scheduler) { s.retry = rp }
}

// WithResilience enables the client-side resilience layer: per-attempt
// timeouts, hedged requests, per-backend circuit breakers and fallback
// execution while a breaker is open. See Resilience.
func WithResilience(r Resilience) Option {
	return func(s *Scheduler) { s.res = &r }
}

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
	env.nAvailable = len(env.placements(env.available[:0]))
	if env.Attempts == nil {
		env.Attempts = new(AttemptPool)
	}
	if policy == nil {
		return nil, fmt.Errorf("sched: nil policy")
	}
	if pred == nil {
		pred = Exact{}
	}
	s := &Scheduler{env: env, policy: policy, pred: pred,
		afterTask: make(map[model.TaskID]func(model.Outcome)),
		ledger:    make(map[model.TaskID]retryLedger)}
	s.stats.init()
	for _, o := range opts {
		o(s)
	}
	if s.res != nil {
		if err := s.res.Validate(); err != nil {
			return nil, err
		}
		s.inflight = make(map[model.TaskID]*taskState)
		s.attemptLat = metrics.NewLatencyHistogram()
		if s.res.Breaker != nil {
			s.installBreakers()
		}
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
		if b != nil && b.State() != BreakerClosed {
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
		if b != nil {
			n += b.Opens()
		}
	}
	return n
}

// Submit routes one task according to the policy. The outcome lands in
// Stats (and on the lifecycle stream) when the task's results are back on
// the device.
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
// with its final outcome, after the settle event. The serve path
// uses this to answer a caller waiting on one specific task. A task that
// fails validation settles immediately, so then still fires.
func (s *Scheduler) SubmitThen(task *model.Task, then func(model.Outcome)) {
	if then != nil {
		s.afterTask[task.ID] = then
	}
	s.Submit(task)
}

// Dispatch runs the task at an explicit placement, bypassing the policy.
// The Batcher uses this to realise its own placement decisions. With the
// resilience layer enabled the placement becomes the task's primary
// target, subject to breaker rerouting, hedging and retries. With the
// failover layer enabled the dispatch is first routed: a down region's
// tasks re-home, park or localize per the degradation ladder. A
// placement outside the model's range names no substrate: the task
// settles failed at PlaceUnknown.
func (s *Scheduler) Dispatch(task *model.Task, placement model.Placement) {
	if uint(placement) >= model.NumPlacements {
		placement = model.PlaceUnknown
	}
	if s.fo != nil {
		s.fo.route(task, placement)
		return
	}
	s.dispatchDirect(task, placement)
}

// dispatchDirect is Dispatch past the failover routing decision: the
// resilience machinery, or one plain attempt.
func (s *Scheduler) dispatchDirect(task *model.Task, placement model.Placement) {
	if s.res != nil {
		s.resilientDispatch(task, placement)
		return
	}
	if s.plainDoneFn == nil {
		s.plainDoneFn = s.plainDone
	}
	if s.env.Events.Active() {
		s.env.Events.Emit(trace.Event{Kind: trace.KindAttemptStart, At: s.env.Eng.Now(),
			Task: task.ID, Attempt: s.ledger[task.ID].retries + 1, Placement: placement})
	}
	s.dispatchTo(task, placement, s.plainDoneFn)
}

// plainDone ends one plain attempt. Its ordinal is the retries so far
// plus one, which finish is about to move on.
func (s *Scheduler) plainDone(o model.Outcome) {
	if s.env.Events.Active() {
		s.env.Events.Emit(trace.Event{Kind: trace.KindAttemptEnd, At: s.env.Eng.Now(),
			Task: o.Task.ID, Attempt: s.ledger[o.Task.ID].retries + 1, Outcome: o, Status: s.plainStatus(o)})
	}
	s.finish(o)
}

// plainStatus classifies a plain attempt's ending the same way finish is
// about to: a failure either consumes a retry or is terminal.
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
	if placement == model.PlaceLocal {
		s.runLocal(task, done)
		return
	}
	path := s.env.Path(placement)
	if path == nil {
		s.fail(task, placement, done)
		return
	}
	if s.env.Remote != nil {
		// Execution, and with it the function pool's deploy and resize
		// (shared state), happens behind Remote. The demand prediction
		// is captured here, at dispatch, so the far side sizes
		// serverless instances with exactly the estimate the serial path
		// would have used.
		s.runRemote(task, placement, nil, s.pred.PredictCycles(task), path, done)
		return
	}
	exec, err := s.env.Executor(placement, task, s.pred)
	if err != nil {
		s.fail(task, placement, done)
		return
	}
	s.runRemote(task, placement, exec, 0, path, done)
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
	// Full speed unless per-task DVFS picks a lower frequency.
	scale := 1.0
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
	a := s.env.Attempts.get(s)
	a.task, a.placement, a.started = task, placement, task.Submitted
	a.exec, a.predicted, a.path, a.done = exec, predicted, path, done
	path.Transfer(task.InputBytes, network.Uplink, a.uplinkFn)
}

// DispatchThen runs the task at an explicit placement and invokes then
// once the outcome is recorded, after the settle event.
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
		n := s.retried(o)
		task, placement := o.Task, o.Placement
		s.env.Eng.After(s.retryDelay(n), func() { s.Dispatch(task, placement) })
		return
	}
	if o.Task != nil {
		l, ok := s.ledger[o.Task.ID]
		o.Attempts = l.retries + 1
		o.CostUSD += l.usd
		o.EnergyMilliJ += l.mj
		if ok {
			delete(s.ledger, o.Task.ID)
		}
	}
	if o.Task != nil && !o.Failed {
		s.pred.Observe(o.Task, o.Task.Cycles)
	}
	s.stats.record(o)
	if s.env.Events.Active() {
		s.env.Events.Emit(trace.Event{Kind: trace.KindSettle, At: s.env.Eng.Now(), Outcome: o})
	}
	if o.Task != nil {
		if cb, ok := s.afterTask[o.Task.ID]; ok {
			delete(s.afterTask, o.Task.ID)
			cb(o)
		}
	}
	// The task's life ends here on both paths: the resilience layer
	// settles only once every attempt has drained.
	s.env.Tasks.Release(o.Task)
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
	return s.ledger[task.ID].retries+1 < s.retry.MaxAttempts
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
	if s.retry.Jitter != nil {
		d = s.retry.Jitter.Uniform(0, d)
	}
	return sim.Duration(d)
}
