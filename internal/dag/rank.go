package dag

import (
	"math"
	"slices"

	"offload/internal/model"
	"offload/internal/sched"
)

// Placer plans where a job's nodes run before the first node dispatches.
type Placer interface {
	// Name identifies the placer in results tables.
	Name() string
	// Place returns one placement per node, or nil to let the scheduler's
	// configured policy decide each node at its release time.
	Place(job *Job, env *sched.Env, pred sched.Predictor) []model.Placement
}

// Oblivious is the precedence-oblivious baseline: ready nodes are
// submitted to the scheduler's configured policy one by one, exactly as
// independent tasks would be. The policy sees each node's queue states
// and deadline but never the job structure.
type Oblivious struct{}

var _ Placer = Oblivious{}

// Name implements Placer.
func (Oblivious) Name() string { return "oblivious" }

// Place implements Placer by declining to plan.
func (Oblivious) Place(*Job, *sched.Env, sched.Predictor) []model.Placement { return nil }

// Rank is HEFT-style upward-rank list scheduling. Each node's mean
// execution estimate across the available placements feeds its upward
// rank (the length of the longest estimate-weighted path to an exit
// node); nodes are then planned in descending rank order onto the
// placement finishing them earliest, against per-placement slot
// availability. Data transfers are already inside each placement's
// estimate — the relay data model charges every edge through the device
// regardless of co-placement — so the classic c̄ edge term is zero here.
//
// Planned finish times model contention on both resources a remote node
// consumes: a compute slot AND airtime on its network path. Serialized
// paths (a half-duplex radio) carry one transfer at a time, so a wide
// job's branches cannot all ship concurrently no matter how elastic the
// remote substrate is — without the airtime term the planner would
// happily "parallelise" onto a substrate whose uplink serialises every
// byte, and the real run would queue on the radio.
//
// Rank plans makespan, not money: it is the latency-optimal counterpart
// to the cost-minimising deadline-aware baseline.
type Rank struct{}

var _ Placer = Rank{}

// Name implements Placer.
func (Rank) Name() string { return "rank" }

// functionSlots caps the modelled concurrency of the elastic serverless
// substrate during planning. Practically unbounded next to any one job's
// width, but finite so the slot table stays small.
const functionSlots = 256

// Place implements Placer.
func (Rank) Place(job *Job, env *sched.Env, pred sched.Predictor) []model.Placement {
	job.mustValidated()
	n := job.Len()
	avail := env.Available()

	// w[id][p]: estimated uplink/execute/downlink seconds of node id at
	// placement p; infinite where the placement cannot serve the node.
	w := make([][model.NumPlacements]phases, n)
	// wbar: mean estimate; rank: upward rank; aft: planned actual finish
	// time — per node, out of one allocation.
	f := make([]float64, 3*n)
	wbar, rank, aft := f[:n:n], f[n:2*n:2*n], f[2*n:]
	probe := new(model.Task)
	for id := 0; id < n; id++ {
		w[id] = nodePhases(job, NodeID(id), env, avail, pred, probe)
		sum, cnt := 0.0, 0
		for _, p := range avail {
			if v := w[id][p].total(); !math.IsInf(v, 1) {
				sum += v
				cnt++
			}
		}
		if cnt == 0 {
			// Nothing can serve it as planned; rank it by its local estimate
			// and let dispatch surface the failure.
			wbar[id] = w[id][model.PlaceLocal].total()
			if math.IsInf(wbar[id], 1) {
				wbar[id] = 0
			}
			continue
		}
		wbar[id] = sum / float64(cnt)
	}

	// Upward ranks, computed in reverse topological order so successors
	// are ranked before their predecessors.
	topo := job.topo
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		best := 0.0
		for _, s := range job.succs[id] {
			if rank[s] > best {
				best = rank[s]
			}
		}
		rank[id] = wbar[id] + best
	}

	// List-schedule by descending rank (ties: ascending NodeID, so the
	// plan is a pure function of the job and the estimates).
	order := slices.Clone(topo)
	for i := 1; i < len(order); i++ {
		for k := i; k > 0; k-- {
			a, b := order[k-1], order[k]
			if rank[b] > rank[a] || (rank[b] == rank[a] && b < a) {
				order[k-1], order[k] = b, a
			} else {
				break
			}
		}
	}

	slots := slotTable(env, n)
	channels := pathChannels(env)
	var radioFree [model.NumPlacements]float64 // per channel: when its radio frees up
	out := make([]model.Placement, n)
	for _, id := range order {
		ready := 0.0
		for _, p := range job.preds[id] {
			if aft[p] > ready {
				ready = aft[p]
			}
		}
		bestP, bestSlot := model.PlaceUnknown, -1
		bestFinish, bestSlotBusy, bestChFree := math.Inf(1), 0.0, 0.0
		for _, p := range avail {
			e := w[id][p]
			if math.IsInf(e.total(), 1) {
				continue
			}
			si, slotFree := slots.earliest(p)
			var fin, slotBusy, chFree float64
			if c := channels[p]; c >= 0 {
				// The uplink waits for the radio, the execute for a compute
				// slot, and the node's total airtime (both directions) keeps
				// the radio busy for the transfers that follow.
				upEnd := math.Max(ready, radioFree[c]) + e.up
				execEnd := math.Max(upEnd, slotFree) + e.exec
				fin = execEnd + e.down
				slotBusy = execEnd
				chFree = upEnd + e.down
			} else {
				fin = math.Max(ready, slotFree) + e.total()
				slotBusy = fin
			}
			if fin < bestFinish {
				bestP, bestSlot = p, si
				bestFinish, bestSlotBusy, bestChFree = fin, slotBusy, chFree
			}
		}
		if bestP == model.PlaceUnknown {
			// Nowhere feasible: fall back to local and keep the plan moving.
			bestP = model.PlaceLocal
			si, free := slots.earliest(bestP)
			bestFinish = math.Max(ready, free) + wbar[id]
			bestSlot, bestSlotBusy = si, bestFinish
		}
		out[id] = bestP
		aft[id] = bestFinish
		slots.occupy(bestP, bestSlot, bestSlotBusy)
		if c := channels[bestP]; c >= 0 {
			radioFree[c] = bestChFree
		}
	}
	return out
}

// phases is what Place keeps of a node's sched.Estimate at one
// placement: uplink airtime, execution and downlink airtime, in seconds.
// Local execution has zero transfer terms; a placement that cannot serve
// the node carries an infinite exec. Keeping three of the estimate's
// fields keeps the per-job table at 24 bytes a cell.
type phases struct {
	up, exec, down float64
}

// total is the uncontended end-to-end estimate.
func (e phases) total() float64 { return e.up + e.exec + e.down }

// infeasible is the phases of a placement that cannot serve a node.
var infeasible = phases{exec: math.Inf(1)}

// nodePhases prices one node at every available placement the way the
// deadline-aware policy does — demand prediction, then the environment's
// uncontended estimate — over the relay-model transfer sizes. probe is
// scratch space for the node's task, overwritten on every call.
func nodePhases(job *Job, id NodeID, env *sched.Env, avail []model.Placement, pred sched.Predictor, probe *model.Task) [model.NumPlacements]phases {
	node := job.nodes[id]
	in, out := job.TaskSizes(id)
	*probe = model.Task{
		App:              job.apps[id],
		Component:        node.Name,
		InputBytes:       in,
		OutputBytes:      out,
		Cycles:           node.Cycles,
		MemoryBytes:      node.MemoryBytes,
		ParallelFraction: node.ParallelFraction,
		Deadline:         job.Deadline(),
	}
	probe.Cycles = pred.PredictCycles(probe)

	var ph [model.NumPlacements]phases
	for p := range ph {
		ph[p] = infeasible
	}
	for _, p := range avail {
		if e := env.Estimate(p, probe); e.OK {
			ph[p] = phases{up: e.Up, exec: e.Exec, down: e.Down}
		}
	}
	return ph
}

// pathChannels assigns each remote placement the airtime channel of its
// serialized network path — the half-duplex radio whose planned free
// time Place tracks — numbered by the first placement on that path, or
// −1 for none. Placements behind the same physical path share one
// channel: a VM in the serverless region contends with function
// invocations for the same radio. Uncontended paths get no channel:
// their transfers overlap, so the uncontended estimate already prices
// them.
func pathChannels(env *sched.Env) [model.NumPlacements]int {
	var ch [model.NumPlacements]int
	for p := range ch {
		ch[p] = -1
		path := env.Path(model.Placement(p))
		if path == nil || !path.Config().Serialize {
			continue
		}
		ch[p] = p
		for q := range p {
			if env.Path(model.Placement(q)) == path {
				ch[p] = ch[q]
				break
			}
		}
	}
	return ch
}

// slotPool tracks per-placement planned availability: one entry per
// concurrent execution slot, holding the time it frees up.
type slotPool [model.NumPlacements][]float64

// slotTable sizes every placement's slots out of one backing array. The
// serverless substrate gets min(functionSlots, n) slots for an n-node
// job, which plans exactly as functionSlots would: earliest picks the
// first minimum and unused slots read 0, so the used slots are always a
// prefix, grown by at most one per node.
func slotTable(env *sched.Env, n int) slotPool {
	var size [model.NumPlacements]int
	size[model.PlaceLocal] = max(1, env.Device.Config().Cores)
	if env.Edge != nil {
		cfg := env.Edge.Config()
		size[model.PlaceEdge] = max(1, cfg.Servers*cfg.Cores)
	}
	if env.Functions != nil {
		size[model.PlaceFunction] = min(functionSlots, n)
	}
	if env.VM != nil {
		size[model.PlaceVM] = max(1, env.VM.Instances()*env.VM.Config().Cores)
	}
	total := 0
	for _, k := range size {
		total += k
	}
	backing := make([]float64, total)
	var s slotPool
	for p, k := range size {
		s[p], backing = backing[:k:k], backing[k:]
	}
	return s
}

// earliest returns the index and free time of the placement's earliest
// available slot.
func (s *slotPool) earliest(p model.Placement) (int, float64) {
	slots := s[p]
	if len(slots) == 0 {
		return -1, math.Inf(1)
	}
	best, bestT := 0, slots[0]
	for i, t := range slots {
		if t < bestT {
			best, bestT = i, t
		}
	}
	return best, bestT
}

func (s *slotPool) occupy(p model.Placement, slot int, until float64) {
	if slots := s[p]; slot >= 0 && slot < len(slots) {
		slots[slot] = until
	}
}
