package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/sim"
	"offload/internal/trace"
)

// Serve-mode errors the daemon maps onto HTTP statuses.
var (
	// ErrOverloaded means the admission cap rejected the submission: the
	// caller should back off (HTTP 429).
	ErrOverloaded = errors.New("core: serve admission cap reached")
	// ErrDraining means the server is shutting down and no longer
	// accepts work (HTTP 503).
	ErrDraining = errors.New("core: server draining")
)

// Server is the serve-mode assembly: a System whose event core runs on a
// sim.Realtime loop instead of a batch Run, accepting task submissions
// from any goroutine in wall-clock (or simulated) time. The entire
// engine–scheduler–substrate stack is reused unchanged; concurrency
// stops at the loop's inbox, so none of the simulation code grows locks.
//
// Construct with NewServer, call Start, submit with Submit or SubmitWait,
// and shut down with Drain (graceful) or Close (immediate).
type Server struct {
	sys *System
	rt  *sim.Realtime

	// maxInFlight caps accepted-but-unsettled tasks; above it Submit
	// sheds with ErrOverloaded. Zero means uncapped.
	maxInFlight uint64

	nextID   atomic.Uint64
	accepted atomic.Uint64
	settled  atomic.Uint64
	shed     atomic.Uint64
	rejected atomic.Uint64 // validation failures surfaced as errors

	ready    atomic.Bool
	draining atomic.Bool
	started  atomic.Bool
}

// NewServer assembles a serve-mode system from the configuration. A nil
// clock runs the deterministic sim clock (events fire back to back —
// the testing and CI-smoke mode); a wall clock makes the daemon live.
// maxInFlight caps concurrently outstanding tasks (0 = uncapped).
//
// Batch and OffPeakShift are batch-run features (their flush semantics
// assume a finite workload) and are rejected here, as is sharding.
func NewServer(cfg Config, clock sim.Clock, maxInFlight int) (*Server, error) {
	sys, err := newSystem(cfg, scopeServe)
	if err != nil {
		return nil, err
	}
	s := &Server{
		sys: sys,
		rt:  sim.NewRealtime(sys.Eng, clock),
	}
	if maxInFlight > 0 {
		s.maxInFlight = uint64(maxInFlight)
	}
	// Count settlements on the loop goroutine; InFlight derives from the
	// accepted/settled pair without touching scheduler internals.
	sys.Env.Events.Subscribe(trace.SubscriberFunc(func(ev trace.Event) {
		if ev.Kind == trace.KindSettle {
			s.settled.Add(1)
		}
	}))
	return s, nil
}

// System returns the underlying system. Only code running on the loop —
// closures passed through Call — may touch it once Start has been called.
func (s *Server) System() *System { return s.sys }

// Start launches the event loop and warms the server: it returns once
// the loop goroutine is live and has executed its first closure, after
// which Ready reports true. Start must be called exactly once.
func (s *Server) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return fmt.Errorf("core: server already started")
	}
	go s.rt.Run()
	// The warm-up barrier: substrates exist, the loop is scheduling.
	if !s.rt.Call(func() {}) {
		return fmt.Errorf("core: serve loop failed to start")
	}
	s.ready.Store(true)
	return nil
}

// Ready reports whether the loop is warm and accepting work: the /readyz
// signal. It turns false again when draining begins.
func (s *Server) Ready() bool {
	return s.ready.Load() && !s.draining.Load()
}

// InFlight returns how many accepted tasks have not settled yet.
func (s *Server) InFlight() uint64 {
	return s.accepted.Load() - s.settled.Load()
}

// Accepted returns how many tasks have been accepted so far.
func (s *Server) Accepted() uint64 { return s.accepted.Load() }

// Shed returns how many submissions the admission cap rejected.
func (s *Server) Shed() uint64 { return s.shed.Load() }

// Submit accepts one task for scheduling: it assigns the server-wide
// task ID, stamps the submission into the loop, and returns immediately.
// then, when non-nil, fires exactly once with the final outcome — on the
// loop goroutine, so it must not block. Submit is safe from any
// goroutine and returns ErrOverloaded past the admission cap or
// ErrDraining during shutdown.
func (s *Server) Submit(task *model.Task, then func(model.Outcome)) (model.TaskID, error) {
	if s.draining.Load() {
		return 0, ErrDraining
	}
	if task == nil {
		return 0, fmt.Errorf("core: nil task")
	}
	if s.maxInFlight > 0 && s.InFlight() >= s.maxInFlight {
		s.shed.Add(1)
		return 0, ErrOverloaded
	}
	if err := task.Validate(); err != nil {
		s.rejected.Add(1)
		return 0, err
	}
	id := model.TaskID(s.nextID.Add(1))
	task.ID = id
	s.accepted.Add(1)
	if !s.rt.Do(func() { s.sys.Scheduler.SubmitThen(task, then) }) {
		s.accepted.Add(^uint64(0)) // undo: the loop is gone
		return 0, ErrDraining
	}
	return id, nil
}

// SubmitWait submits the task and blocks until it settles or the context
// is cancelled. On cancellation the task keeps running to completion
// inside the loop; only the wait is abandoned.
func (s *Server) SubmitWait(ctx context.Context, task *model.Task) (model.Outcome, error) {
	ch := make(chan model.Outcome, 1)
	if _, err := s.Submit(task, func(o model.Outcome) { ch <- o }); err != nil {
		return model.Outcome{}, err
	}
	select {
	case o := <-ch:
		return o, nil
	case <-ctx.Done():
		return model.Outcome{}, ctx.Err()
	}
}

// Report snapshots the run summary. The snapshot runs on the loop
// goroutine, so it is consistent: no event is mid-flight while it reads.
// ok is false when the loop has stopped.
func (s *Server) Report() (Report, bool) {
	var r Report
	ok := s.rt.Call(func() { r = s.sys.Report() })
	return r, ok
}

// Registry snapshots the metrics registry under the given name,
// augmented with the serve layer's own counters and gauges
// (serve_accepted, serve_shed, serve_inflight, ...).
func (s *Server) Registry(name string) (*metrics.Registry, bool) {
	var reg *metrics.Registry
	if ok := s.rt.Call(func() { reg = s.sys.Registry(name) }); !ok {
		return nil, false
	}
	reg.Counter("serve_accepted").Add(float64(s.accepted.Load()))
	reg.Counter("serve_settled").Add(float64(s.settled.Load()))
	reg.Counter("serve_shed").Add(float64(s.shed.Load()))
	reg.Counter("serve_rejected").Add(float64(s.rejected.Load()))
	reg.Gauge("serve_inflight").Set(float64(s.InFlight()))
	return reg, true
}

// WriteMetrics renders the current registry snapshot in Prometheus text
// exposition format: the body of GET /metrics.
func (s *Server) WriteMetrics(w io.Writer) error {
	reg, ok := s.Registry("serve")
	if !ok {
		return fmt.Errorf("core: serve loop stopped")
	}
	return metrics.WritePrometheus(w, reg)
}

// Drain performs a graceful shutdown: new submissions are refused, tasks
// already accepted run to completion (tasks parked by the failover
// ladder are localized rather than stranded), and the loop stops once
// everything has settled or the context expires. It returns the number
// of tasks still unsettled at exit — zero on a clean drain.
func (s *Server) Drain(ctx context.Context) (uint64, error) {
	s.draining.Store(true)
	s.ready.Store(false)
	defer func() {
		s.rt.Stop()
		<-s.rt.Done()
	}()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.InFlight() == 0 {
			return 0, nil
		}
		// Work parked in the failover wait queue would never run if the
		// outage outlasts the daemon: localize it, as batch Run does.
		s.rt.Call(func() { s.sys.Scheduler.FlushFailover() })
		if s.InFlight() == 0 {
			return 0, nil
		}
		select {
		case <-ctx.Done():
			return s.InFlight(), fmt.Errorf("core: drain aborted with %d tasks in flight: %w", s.InFlight(), ctx.Err())
		case <-tick.C:
		}
	}
}

// Close stops the loop immediately without draining. Safe after Drain.
func (s *Server) Close() {
	s.draining.Store(true)
	s.ready.Store(false)
	s.rt.Stop()
	<-s.rt.Done()
}
