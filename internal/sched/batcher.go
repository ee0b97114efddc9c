package sched

import (
	"fmt"
	"slices"

	"offload/internal/model"
	"offload/internal/sim"
)

// Batcher exploits delay tolerance by holding serverless-bound tasks of
// the same application and dispatching them back-to-back, so that all but
// the first reuse the warm container — the cold-start amortisation the E4
// experiment quantifies. A batch flushes when it reaches Size tasks or
// when the oldest member has waited MaxWait.
//
// Tasks the policy sends anywhere other than serverless bypass batching.
type Batcher struct {
	sched   *Scheduler
	size    int
	maxWait sim.Duration

	queues  map[string]*batchQueue
	flushes uint64
	batched uint64
}

type batchQueue struct {
	tasks []*model.Task
	timer sim.EventRef
}

// NewBatcher wraps a scheduler. Size must be positive; maxWait zero means
// "flush only when full" (use with a finite workload followed by Flush).
func NewBatcher(s *Scheduler, size int, maxWait sim.Duration) (*Batcher, error) {
	if s == nil {
		return nil, fmt.Errorf("sched: batcher over nil scheduler")
	}
	if size <= 0 {
		return nil, fmt.Errorf("sched: batch size %d not positive", size)
	}
	if maxWait < 0 {
		return nil, fmt.Errorf("sched: negative batch wait")
	}
	return &Batcher{
		sched:   s,
		size:    size,
		maxWait: maxWait,
		queues:  make(map[string]*batchQueue),
	}, nil
}

// Submit routes a task: serverless-bound tasks queue for batching, all
// others dispatch immediately.
func (b *Batcher) Submit(task *model.Task) {
	env := b.sched.env
	task.Submitted = env.Eng.Now()
	placement := b.sched.policy.Decide(task, env, b.sched.pred)
	if placement != model.PlaceFunction || env.Functions == nil {
		b.sched.Dispatch(task, placement)
		return
	}
	q, ok := b.queues[task.App]
	if !ok {
		q = &batchQueue{}
		b.queues[task.App] = q
	}
	q.tasks = append(q.tasks, task)
	b.batched++
	if len(q.tasks) >= b.size {
		b.flush(task.App, q)
		return
	}
	if !q.timer.Scheduled() && b.maxWait > 0 {
		q.timer = env.Eng.After(b.maxWait, func() {
			q.timer = sim.EventRef{}
			if len(q.tasks) > 0 {
				b.flush(task.App, q)
			}
		})
	}
}

// Flush dispatches every queued batch immediately, regardless of fill,
// in application-name order.
func (b *Batcher) Flush() {
	apps := make([]string, 0, len(b.queues))
	for app, q := range b.queues {
		if len(q.tasks) > 0 {
			apps = append(apps, app)
		}
	}
	slices.Sort(apps)
	for _, app := range apps {
		b.flush(app, b.queues[app])
	}
}

// flush dispatches the queue's tasks sequentially: each next task is
// submitted when the previous one completes, so the platform's keep-alive
// pool serves them from the same warm container.
func (b *Batcher) flush(app string, q *batchQueue) {
	tasks := q.tasks
	q.tasks = nil
	b.sched.env.Eng.Cancel(q.timer)
	q.timer = sim.EventRef{}
	b.flushes++
	var runNext func(i int)
	runNext = func(i int) {
		if i >= len(tasks) {
			return
		}
		b.sched.DispatchThen(tasks[i], model.PlaceFunction, func(model.Outcome) {
			runNext(i + 1)
		})
	}
	runNext(0)
	_ = app
}

// Flushes returns how many batches were dispatched.
func (b *Batcher) Flushes() uint64 { return b.flushes }

// Batched returns how many tasks went through batching.
func (b *Batcher) Batched() uint64 { return b.batched }

// Pending returns tasks currently waiting in batch queues.
func (b *Batcher) Pending() int {
	n := 0
	for _, q := range b.queues {
		n += len(q.tasks)
	}
	return n
}
