package sched

import (
	"fmt"
	"math"

	"offload/internal/model"
	"offload/internal/sim"
	"offload/internal/trace"
)

// Budget caps serverless spending per virtual day. When the cap is
// reached, a BudgetedPolicy stops choosing paid placements until the next
// day starts — spending becomes a hard constraint instead of a weighted
// objective term, which is how organisations actually run cloud accounts.
type Budget struct {
	eng      *sim.Engine
	dailyUSD float64

	day     int
	spent   float64
	blocked uint64
}

// NewBudget returns a budget of dailyUSD per 24 h of virtual time.
func NewBudget(eng *sim.Engine, dailyUSD float64) (*Budget, error) {
	if eng == nil {
		return nil, fmt.Errorf("sched: budget without engine")
	}
	if dailyUSD <= 0 {
		return nil, fmt.Errorf("sched: daily budget must be positive, got %g", dailyUSD)
	}
	return &Budget{eng: eng, dailyUSD: dailyUSD}, nil
}

// roll resets the accumulator when the virtual day changes.
func (b *Budget) roll() {
	day := int(float64(b.eng.Now()) / 86400)
	if day != b.day {
		b.day = day
		b.spent = 0
	}
}

// Remaining returns today's unspent budget.
func (b *Budget) Remaining() float64 {
	b.roll()
	return math.Max(0, b.dailyUSD-b.spent)
}

// Exhausted reports whether today's budget is gone.
func (b *Budget) Exhausted() bool { return b.Remaining() <= 0 }

// OnEvent implements trace.Subscriber: every settled task charges the
// budget. Subscribe it to the scheduler's lifecycle stream (core does).
func (b *Budget) OnEvent(ev trace.Event) {
	if ev.Kind == trace.KindSettle {
		b.roll()
		b.spent += ev.Outcome.CostUSD
	}
}

// Blocked returns how many placement decisions the budget overrode.
func (b *Budget) Blocked() uint64 { return b.blocked }

// BudgetedPolicy wraps a policy and overrides paid placements (serverless)
// with the cheapest free one once the daily budget is exhausted.
type BudgetedPolicy struct {
	Inner  Policy
	Budget *Budget
}

var _ Policy = (*BudgetedPolicy)(nil)

// Name implements Policy.
func (p *BudgetedPolicy) Name() string { return p.Inner.Name() + "+budget" }

// Decide implements Policy.
func (p *BudgetedPolicy) Decide(task *model.Task, env *Env, pred Predictor) model.Placement {
	placement := p.Inner.Decide(task, env, pred)
	if placement != model.PlaceFunction || !p.Budget.Exhausted() {
		return placement
	}
	p.Budget.blocked++
	// Fall back to the cheapest free capacity: the edge if present (its
	// cost is sunk), the VM if present (likewise), else the device.
	if env.Serves(model.PlaceEdge) {
		return model.PlaceEdge
	}
	return env.orLocal(model.PlaceVM)
}
