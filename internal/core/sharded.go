package core

import (
	"fmt"

	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/sim"
	"offload/internal/trace"
	"offload/internal/workload"
)

// ShardedFleet is Fleet at million-UE scale: the UEs are partitioned
// across N worker shards, each owning its devices' event heap, advancing
// in lockstep epochs against a hub engine that owns the shared substrates
// (serverless platform, edge site, VM fleet). Remote executions cross the
// conservative barrier (sim.ShardedEngine) in canonical order, so results
// are byte-identical at every shard count — including one shard, which is
// the serial reference the determinism gate diffs against.
//
// Determinism layout: every result-affecting random stream is keyed by UE
// index (rng.Fork(Derive(seed, 1), ue)), never by shard, and task IDs are
// offset per UE (ue<<32), so the UE→shard partition cannot influence a
// single draw or identifier. The hub draws from rng.Fork(seed, 0). See
// DESIGN.md for the full barrier-protocol argument.
type ShardedFleet struct {
	SE *sim.ShardedEngine

	fleetUEs

	ueSrc    []*rng.Source
	spanRecs []*trace.SpanRecorder
	policy   PolicyName
}

// fixedCycles is a Predictor that replays a demand estimate captured
// earlier: the shard-side scheduler predicts at dispatch time, and the
// hub-side function pool must size instances with exactly that estimate,
// not a fresh one from a different predictor state. The hub owns one and
// refills it per execution; a pointer never boxes into the interface.
type fixedCycles struct{ cycles float64 }

func (c *fixedCycles) PredictCycles(*model.Task) float64 { return c.cycles }
func (*fixedCycles) Observe(*model.Task, float64)        {}

// shardHub executes remote attempts on the hub engine. Its execute method
// runs hub-side (delivered through the barrier in canonical order) and
// resolves the attempt's placement through a substrate-only environment,
// exactly as the serial scheduler resolves it.
type shardHub struct {
	se   *sim.ShardedEngine
	env  sched.Env   // the shared substrates; no device, engine or paths
	pred fixedCycles // scratch for the function pool; phase B is single-threaded
}

func (h *shardHub) execute(a *sched.RemoteAttempt, done func(model.ExecReport)) {
	task := a.Task()
	// Deploying or resizing a function mutates shared pool state, which
	// is exactly why this happens hub-side; fixedCycles hands the pool the
	// shard-captured prediction the serial path would use.
	h.pred.cycles = a.Predicted()
	exec, err := h.env.Executor(a.Placement(), task, &h.pred)
	if err != nil {
		now := h.se.Hub().Now()
		done(model.ExecReport{Start: now, End: now, Err: err})
		return
	}
	exec.Execute(task, done)
}

// bind gives an attempt record of shard's pool its hop: the hub-side
// execution, whose reply stores the report in the record and sends the
// record's continuation back to the shard. Both are built once per
// record. A record stays on its shard's pool and the hop names only the
// hub and the shard, so it serves every UE on the shard that draws the
// record. The hub touches a record only in phase B, while the shard is
// quiescent, and the record goes back to the pool on the shard.
func (h *shardHub) bind(a *sched.RemoteAttempt, shard int) {
	reply := func(rep model.ExecReport) { h.se.SendToShard(shard, a.Resume(rep)) }
	a.Hop = func() { h.execute(a, reply) }
}

// uePort implements sched.RemoteBackends for one UE: it forwards the
// execution to the hub at the next barrier (keyed by UE index, so
// delivery order is canonical and shard-count-invariant) and returns the
// report to the UE's shard at the barrier after the execution finishes.
type uePort struct {
	hub   *shardHub
	shard int
	key   uint64 // UE index: the canonical cross-shard ordering key
}

var _ sched.RemoteBackends = (*uePort)(nil)

func (p *uePort) Execute(a *sched.RemoteAttempt) {
	if a.Hop == nil {
		p.hub.bind(a, p.shard)
	}
	p.hub.se.SendToHub(p.shard, p.key, a.Hop)
}

// NewShardedFleet builds n UEs partitioned round-robin (UE i on shard
// i mod ShardCount) over the configuration's shared substrates. Features
// that mutate shared or global state from per-UE code paths are rejected
// up front (see Config.check). The per-UE features (static policies,
// retries with jitter and capped backoff, prediction noise, local DVFS)
// draw only per-UE streams and are supported.
func NewShardedFleet(cfg Config, n int) (*ShardedFleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: sharded fleet of %d devices", n)
	}
	if err := cfg.check(scopeSharded); err != nil {
		return nil, err
	}
	shards := max(cfg.ShardCount, 1)
	se := sim.NewSharded(shards, DefaultShardInterval)
	f := &ShardedFleet{SE: se, fleetUEs: newFleetUEs(&cfg, se.Hub(), n),
		ueSrc: make([]*rng.Source, 0, n), policy: cfg.Policy}
	f.sub.functions(rng.Fork(cfg.Seed, 0))
	hub := &shardHub{se: se, env: sched.Env{Edge: f.sub.edge, Functions: f.sub.pool, VM: f.sub.vm}}

	// Per-UE rng base: Derive(seed, 1) so the hub stream (Fork(seed, 0))
	// and UE streams can never collide whatever n is.
	ueBase := rng.Derive(cfg.Seed, 1)
	// One set of pools per shard: a shard's UEs share it, and only the
	// shard's goroutine touches it.
	pools := make([]*enginePools, shards)
	for i := range pools {
		pools[i] = new(enginePools)
	}
	for i := 0; i < n; i++ {
		sidx := i % shards
		src := rng.Fork(ueBase, uint64(i))
		f.ueSrc = append(f.ueSrc, src)
		port := &uePort{hub: hub, shard: sidx, key: uint64(i)}
		if err := f.addUE(cfg, i, se.Shard(sidx), src, port, pools[sidx]); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Shards returns the number of worker shards.
func (f *ShardedFleet) Shards() int { return f.SE.NumShards() }

// Submit gives every UE its own generator clone over the standard
// template mix (task IDs offset by ue<<32, globally unique and
// shard-count-invariant) and an arrival process built from a per-UE
// stream, then schedules count tasks per UE on the UE's shard engine.
func (f *ShardedFleet) Submit(count int, arrivals func(src *rng.Source, ue int) workload.Arrivals) error {
	// The prototype only carries the template mix; its stream is never
	// drawn from, so any seed works.
	proto, err := workload.StandardMix(rng.New(0))
	if err != nil {
		return err
	}
	shards := f.SE.NumShards()
	for i, s := range f.Schedulers {
		src := f.ueSrc[i]
		gen := proto.Clone(src.Split(), model.TaskID(uint64(i))<<32)
		workload.StreamFrom(f.SE.Shard(i%shards), s.Env().Tasks, arrivals(src.Split(), i), gen, count, s.Submit)
	}
	return nil
}

// SubmitStreams mirrors Fleet.SubmitStreams: Poisson arrivals at the
// given per-UE rate, count tasks per UE.
func (f *ShardedFleet) SubmitStreams(rate float64, tasksPerDevice int) error {
	return f.Submit(tasksPerDevice, func(src *rng.Source, _ int) workload.Arrivals {
		return workload.NewPoisson(src, rate)
	})
}

// Run drives the sharded simulation to completion.
func (f *ShardedFleet) Run() { f.SE.Run() }

// Events returns the total number of events fired across the hub and
// every shard. The global event set is partition-invariant, so the count
// is identical at every shard count.
func (f *ShardedFleet) Events() uint64 {
	total := f.SE.Hub().Fired()
	for i := 0; i < f.SE.NumShards(); i++ {
		total += f.SE.Shard(i).Fired()
	}
	return total
}

// EnableSpans subscribes one span recorder per shard (each
// single-threaded on its shard) to the lifecycle stream of every UE on
// the shard. Call before Run; idempotent. SpanSet merges the per-shard
// recordings canonically.
func (f *ShardedFleet) EnableSpans() {
	if f.spanRecs != nil {
		return
	}
	f.spanRecs = make([]*trace.SpanRecorder, f.SE.NumShards())
	for i := range f.spanRecs {
		f.spanRecs[i] = trace.NewSpanRecorder()
		f.spanRecs[i].SetMeta("run", string(f.policy))
	}
	for i, s := range f.Schedulers {
		s.Env().Events.Subscribe(f.spanRecs[i%len(f.spanRecs)])
	}
}

// SpanSet returns the merged, canonically renumbered spans from every
// shard recorder, or nil when EnableSpans was never called. The merge is
// byte-identical at every shard count (trace.MergeSets).
func (f *ShardedFleet) SpanSet() *trace.SpanSet {
	if f.spanRecs == nil {
		return nil
	}
	sets := make([]*trace.SpanSet, len(f.spanRecs))
	for i, r := range f.spanRecs {
		sets[i] = r.Set()
	}
	return trace.MergeSets("run", string(f.policy), sets...)
}
