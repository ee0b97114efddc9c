package adapt

import (
	"fmt"
	"math"
	"slices"

	"offload/internal/model"
	"offload/internal/rng"
)

// BanditKind selects the exploration strategy.
type BanditKind int

// The implemented strategies.
const (
	// BanditUCB is UCB1: mean reward plus a confidence radius that shrinks
	// as an arm accumulates pulls.
	BanditUCB BanditKind = iota
	// BanditGreedy is epsilon-greedy: exploit the best mean, explore
	// uniformly with probability Epsilon.
	BanditGreedy
)

// armStat is one (context, placement) cell of the bandit table.
type armStat struct {
	pulls int
	mean  float64 // incremental mean reward in [0, 1]
}

func (a *armStat) observe(reward float64) {
	a.pulls++
	a.mean += (reward - a.mean) / float64(a.pulls)
}

// ctxArms is the per-context arm table, indexed by placement.
type ctxArms struct {
	arms  [model.NumPlacements]armStat
	total int // pulls across all arms in this context
}

// bandit is the contextual placement learner. Context is the task's app
// crossed with its input-size decile; arms are the placements the
// environment offers. All randomness comes from the single source handed
// in at construction, so decisions are a pure function of the run's seed.
type bandit struct {
	kind    BanditKind
	epsilon float64
	ucbC    float64
	src     *rng.Source

	byCtx map[string]*ctxArms
}

func newBandit(kind BanditKind, epsilon, ucbC float64, src *rng.Source) *bandit {
	return &bandit{
		kind:    kind,
		epsilon: epsilon,
		ucbC:    ucbC,
		src:     src,
		byCtx:   make(map[string]*ctxArms),
	}
}

func (b *bandit) context(key string) *ctxArms {
	c, ok := b.byCtx[key]
	if !ok {
		c = &ctxArms{}
		b.byCtx[key] = c
	}
	return c
}

// decide picks an arm among avail for the context. Untried arms are pulled
// first, in the availability order, so every arm gets at least one
// observation before scores are compared.
func (b *bandit) decide(key string, avail []model.Placement) model.Placement {
	if len(avail) == 0 {
		return model.PlaceLocal
	}
	c := b.context(key)

	// Epsilon-greedy draws its exploration coin on every decision — pulled
	// or not, the stream advances identically, which keeps decisions
	// aligned when availability varies between calls.
	explore := false
	if b.kind == BanditGreedy {
		explore = b.src.Float64() < b.epsilon
	}
	if explore {
		return avail[b.src.Intn(len(avail))]
	}

	for _, p := range avail {
		if c.arms[p].pulls == 0 {
			return p
		}
	}

	best, bestScore := avail[0], math.Inf(-1)
	for _, p := range avail {
		st := &c.arms[p]
		score := st.mean
		if b.kind == BanditUCB {
			score += b.ucbC * math.Sqrt(2*math.Log(float64(c.total))/float64(st.pulls))
		}
		if score > bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// observe credits the reward to the arm that actually served the task.
// Crediting the executed placement (rather than the one decided) keeps
// the table honest when admission control or fallback rerouted the task.
func (b *bandit) observe(key string, arm model.Placement, reward float64) {
	c := b.context(key)
	c.arms[arm].observe(reward)
	c.total++
}

// resetArm forgets everything learned about one placement across every
// context — the drift detector's response to a regime change on that
// backend. Returns how many non-empty cells were cleared.
func (b *bandit) resetArm(p model.Placement) int {
	cleared := 0
	for _, c := range b.byCtx {
		st := &c.arms[p]
		if st.pulls == 0 {
			continue
		}
		c.total -= st.pulls
		*st = armStat{}
		cleared++
	}
	return cleared
}

// ArmSnapshot is the learned state of one placement, aggregated over all
// contexts — what the metrics export shows.
type ArmSnapshot struct {
	Placement model.Placement
	Pulls     int
	// MeanReward is the pull-weighted mean reward across contexts.
	MeanReward float64
}

// snapshot aggregates the table per arm, in canonical placement order.
// Each arm's running mean folds the contexts in sorted key order, so
// identical runs export identical bits.
func (b *bandit) snapshot() []ArmSnapshot {
	keys := make([]string, 0, len(b.byCtx))
	for k := range b.byCtx {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var byArm [model.NumPlacements]ArmSnapshot
	for _, k := range keys {
		for p, st := range b.byCtx[k].arms {
			if st.pulls == 0 {
				continue
			}
			s := &byArm[p]
			s.MeanReward = (s.MeanReward*float64(s.Pulls) + st.mean*float64(st.pulls)) /
				float64(s.Pulls+st.pulls)
			s.Pulls += st.pulls
		}
	}
	var out []ArmSnapshot
	for p := model.PlaceLocal; p < model.NumPlacements; p++ {
		if s := byArm[p]; s.Pulls > 0 {
			s.Placement = p
			out = append(out, s)
		}
	}
	return out
}

// contextKey buckets a task into its bandit context: application crossed
// with the input-size decile.
func contextKey(task *model.Task) string {
	return fmt.Sprintf("%s#%d", task.App, sizeDecile(task.InputBytes))
}

// sizeDecile maps input size onto ten log-scale buckets spanning
// 1 KB – 1 GB, clamped at both ends. Log-scale because input sizes are
// lognormal-ish in the workload model: linear deciles would put almost
// every task in bucket 0.
func sizeDecile(bytes int64) int {
	if bytes <= 1024 {
		return 0
	}
	// log2(1 GB / 1 KB) = 20 doublings across 10 buckets.
	d := int(math.Log2(float64(bytes)/1024) / 2)
	if d > 9 {
		d = 9
	}
	return d
}
