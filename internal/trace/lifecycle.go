package trace

import (
	"offload/internal/model"
	"offload/internal/sim"
)

// Kind names a lifecycle event.
type Kind uint8

// The lifecycle event kinds. Each lists the Event fields it sets besides
// Kind and At.
const (
	// KindAttemptStart: one dispatch of a task began. Task, Attempt,
	// Placement (the target), Hedge.
	KindAttemptStart Kind = iota + 1
	// KindAttemptEnd: the attempt ended. Task, Attempt, Outcome, Status
	// (one of the attempt Status* constants).
	KindAttemptEnd
	// KindAttemptCost: money an already-ended attempt billed afterwards
	// (a timed-out attempt's late completion). Task, Attempt, CostUSD.
	KindAttemptCost
	// KindHedgeCancel: an armed hedge timer was dismissed unfired. Task.
	KindHedgeCancel
	// KindSettle: the task settled, every attempt drained. Outcome.
	KindSettle
	// KindBreaker: a circuit breaker changed state. Placement, From, To
	// ("closed", "open", "half-open").
	KindBreaker
	// KindRegion: a region went down or came back up. Name (the region),
	// Placements (those homed there), Down.
	KindRegion
	// KindDegrade: the degradation ladder moved between rungs. From, To
	// (healthy, shed-low, localize-critical, queue-and-wait).
	KindDegrade
	// KindRehome: a task left a down region's placement for a surviving
	// one. Task, Placement (from), Target (to).
	KindRehome
	// KindAdapt: an adaptive-layer decision. Status (the decision kind),
	// Name (its subject).
	KindAdapt
	// KindAdopt: a DAG node task belongs to a job. Task, Job.
	KindAdopt
	// KindJobDone: a DAG job settled. Job, Name (the app), Start, At (its
	// end), Status (StatusOK, StatusMissed or StatusFailed), CostUSD.
	KindJobDone
)

// Event is one step of a task's (or the run's) lifecycle. Which fields
// are set depends on Kind. Events travel by value: emission re-enters (a
// subscriber may emit while handling an event), so a shared event would
// be overwritten under its reader, and a pointer would escape to the
// heap.
type Event struct {
	Kind Kind
	At   sim.Time

	// Task and Attempt identify an attempt: the task ID and the 1-based
	// ordinal of the dispatch among the task's attempts, hedges
	// included.
	Task    model.TaskID
	Attempt int
	Hedge   bool

	Placement model.Placement
	Target    model.Placement
	// Outcome.Task may be a pooled task, recycled once the task settles:
	// it is valid only until OnEvent returns, so copy what you keep.
	Outcome model.Outcome
	CostUSD float64
	Status  string

	Name       string
	From, To   string
	Down       bool
	Placements []model.Placement

	Job   uint64
	Start sim.Time
}

// Subscriber receives lifecycle events.
type Subscriber interface {
	OnEvent(Event)
}

// SubscriberFunc adapts a function to Subscriber.
type SubscriberFunc func(Event)

// OnEvent calls f.
func (f SubscriberFunc) OnEvent(ev Event) { f(ev) }

// Stream is one UE's lifecycle event stream: the scheduler, the failover
// layer, the adaptive controller and the DAG orchestrator emit into it,
// and each subscriber sees every event in emission order. Subscribers run
// in subscription order. Only the adaptive controller and the daily
// budget act on what they receive; every other subscriber is passive: it
// records, but schedules no events, draws no randomness and mutates no
// task, so subscribing one never changes simulated results.
type Stream struct {
	subs []Subscriber
}

// Subscribe appends sub behind the subscribers already attached. Call
// before the first event.
func (s *Stream) Subscribe(sub Subscriber) { s.subs = append(s.subs, sub) }

// Active reports whether anything subscribed. Emitters on a task's hot
// path (attempt start and end, settle) test it before building an event,
// so a stream nobody reads costs them one branch.
func (s *Stream) Active() bool { return len(s.subs) > 0 }

// Emit delivers ev to every subscriber in subscription order.
func (s *Stream) Emit(ev Event) {
	for _, sub := range s.subs {
		sub.OnEvent(ev)
	}
}
