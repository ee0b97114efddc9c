package dag

import (
	"math"
	"testing"

	"offload/internal/cloudvm"
	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// The references below are the two estimators sched.Env.Estimate
// replaced, kept as they were: the deadline-aware policy's per-substrate
// table and the rank placer's per-node phases. Only the names changed,
// and the policy's method became a function.

type refDAEstimate struct {
	placement model.Placement
	time      float64 // seconds
	energyJ   float64
	moneyUSD  float64
	ok        bool
}

func refDeadlineAwareEstimates(task *model.Task, env *sched.Env, cycles float64) [4]refDAEstimate {
	predTask := *task
	predTask.Cycles = cycles

	var ests [4]refDAEstimate

	// Local: backlog-aware queue estimate plus compute energy.
	dev := env.Device
	localExec := float64(dev.ExecTime(&predTask))
	queueFactor := float64(dev.Backlog())/float64(dev.Config().Cores) + 1
	ests[0] = refDAEstimate{
		placement: model.PlaceLocal,
		time:      localExec * queueFactor,
		energyJ:   dev.ComputeEnergyMilliJ(&predTask) / 1000,
		ok:        !dev.Dead(),
	}

	if env.Edge != nil {
		up := float64(env.EdgePath.EstimateTransfer(task.InputBytes, network.Uplink))
		down := float64(env.EdgePath.EstimateTransfer(task.OutputBytes, network.Downlink))
		exec := float64(env.Edge.ExecTime(&predTask))
		cores := env.Edge.Config().Servers * env.Edge.Config().Cores
		qf := float64(env.Edge.QueueLen())/float64(cores) + 1
		ests[1] = refDAEstimate{
			placement: model.PlaceEdge,
			time:      up + exec*qf + down,
			energyJ:   refRadioJ(env, up, down),
			// Amortised infrastructure attribution: the core-seconds this
			// task occupies, priced at the site's hourly cost.
			moneyUSD: exec * env.Edge.Config().HourlyCostUSD / (3600 * float64(cores)),
			ok:       env.Edge.Config().MemoryPerServer == 0 || task.MemoryBytes <= env.Edge.Config().MemoryPerServer,
		}
	}

	if env.Functions != nil {
		up := float64(env.CloudPath.EstimateTransfer(task.InputBytes, network.Uplink))
		down := float64(env.CloudPath.EstimateTransfer(task.OutputBytes, network.Downlink))
		dec, err := env.Functions.EstimateFor(task, cycles)
		ests[2] = refDAEstimate{
			placement: model.PlaceFunction,
			time:      up + float64(dec.ExpectedTime) + down,
			energyJ:   refRadioJ(env, up, down),
			moneyUSD:  dec.ExpectedCostUSD,
			ok:        err == nil,
		}
	}

	if env.VM != nil {
		path := env.CloudPath
		up := float64(path.EstimateTransfer(task.InputBytes, network.Uplink))
		down := float64(path.EstimateTransfer(task.OutputBytes, network.Downlink))
		exec := float64(env.VM.ExecTime(&predTask))
		cores := env.VM.Instances() * env.VM.Config().Cores
		qf := 1.0
		if cores > 0 {
			qf = float64(env.VM.QueueLen())/float64(cores) + 1
		}
		ests[3] = refDAEstimate{
			placement: model.PlaceVM,
			time:      up + exec*qf + down,
			energyJ:   refRadioJ(env, up, down),
			moneyUSD:  exec * env.VM.Config().HourlyCostUSD / (3600 * float64(env.VM.Config().Cores)),
			ok:        true,
		}
	}
	return ests
}

func refRadioJ(env *sched.Env, upSec, downSec float64) float64 {
	cfg := env.Device.Config()
	return cfg.TxPowerW*upSec + cfg.RxPowerW*downSec
}

const refNumPlacements = int(model.PlaceVM) + 1

type refEstimate struct {
	up, exec, down float64
}

var refInfeasible = refEstimate{exec: math.Inf(1)}

func refNodeEstimates(job *Job, id NodeID, env *sched.Env, pred sched.Predictor, probe *model.Task) [refNumPlacements]refEstimate {
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

	var ests [refNumPlacements]refEstimate
	for p := range ests {
		ests[p] = refInfeasible
	}
	if dev := env.Device; dev != nil && !dev.Dead() {
		ests[model.PlaceLocal] = refEstimate{exec: float64(dev.ExecTime(probe))}
	}
	if env.Edge != nil {
		cfg := env.Edge.Config()
		if cfg.MemoryPerServer == 0 || probe.MemoryBytes <= cfg.MemoryPerServer {
			ests[model.PlaceEdge] = refEstimate{
				up:   float64(env.EdgePath.EstimateTransfer(in, network.Uplink)),
				exec: float64(env.Edge.ExecTime(probe)),
				down: float64(env.EdgePath.EstimateTransfer(out, network.Downlink)),
			}
		}
	}
	if env.Functions != nil {
		if dec, err := env.Functions.EstimateFor(probe, probe.Cycles); err == nil {
			ests[model.PlaceFunction] = refEstimate{
				up:   float64(env.CloudPath.EstimateTransfer(in, network.Uplink)),
				exec: float64(dec.ExpectedTime),
				down: float64(env.CloudPath.EstimateTransfer(out, network.Downlink)),
			}
		}
	}
	if env.VM != nil {
		path := env.CloudPath
		ests[model.PlaceVM] = refEstimate{
			up:   float64(path.EstimateTransfer(in, network.Uplink)),
			exec: float64(env.VM.ExecTime(probe)),
			down: float64(path.EstimateTransfer(out, network.Downlink)),
		}
	}
	return ests
}

// constPredictor predicts the same demand for every task.
type constPredictor float64

func (c constPredictor) PredictCycles(*model.Task) float64 { return float64(c) }
func (constPredictor) Observe(*model.Task, float64)        {}

// finite maps v into [0, hi], sending NaN and infinities to 0.
func finite(v, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Min(math.Abs(v), hi)
}

// fuzzEnv builds a substrate set: subset's low three bits switch the edge
// site, the serverless pool and the VM fleet on; the device, the edge
// site and the VM fleet get the given numbers of tasks queued behind
// their cores, without running them.
func fuzzEnv(subset, devBacklog, edgeQueue, vmQueue uint8, dead bool, edgeMemMB uint16) *sched.Env {
	eng := sim.NewEngine()
	src := rng.New(1)
	devCfg := device.Smartphone()
	if dead {
		devCfg.BatteryJ = 1
	}
	env := &sched.Env{Eng: eng, Device: device.New(eng, devCfg)}
	if dead {
		env.Device.RadioEnergyMilliJ(10, true) // drains the 1 J battery
	}
	noop := func(model.ExecReport) {}
	busy := func(exec func(*model.Task, func(model.ExecReport)), n uint8) {
		for i := range int(n % 16) {
			exec(&model.Task{ID: model.TaskID(i + 1), App: "busy", Cycles: 1e9}, noop)
		}
	}
	busy(env.Device.Execute, devBacklog)
	if subset&1 != 0 {
		env.Edge = edge.New(eng, edge.Config{
			Name: "edge", Servers: 1, Cores: 2, CPUHz: 3e9,
			HourlyCostUSD: 0.1, MemoryPerServer: int64(edgeMemMB) * model.MB,
		})
		env.EdgePath = network.New(eng, src.Split(), network.LANEdge())
		busy(env.Edge.Execute, edgeQueue)
	}
	if subset&6 != 0 {
		env.CloudPath = network.New(eng, src.Split(), network.Config{
			Name: "wan", OneWayDelay: 0.025, UplinkBps: 50e6, DownlinkBps: 100e6,
		})
	}
	if subset&2 != 0 {
		env.Functions = sched.NewFunctionPool(serverless.NewPlatform(eng, src.Split(), serverless.LambdaLike()))
		env.Functions.ArrivalRateHint = 0.05
	}
	if subset&4 != 0 {
		env.VM = cloudvm.New(eng, cloudvm.C5Large())
		busy(env.VM.Execute, vmQueue)
	}
	return env
}

// FuzzEstimateMatchesReference checks that sched.Env.Estimate prices
// every placement exactly as the two estimators it replaced did, by
// Float64bits on every field both produce: the deadline-aware policy's
// backlog-stretched time, device energy, money and feasibility, and the
// rank placer's uplink, execution and downlink phases.
func FuzzEstimateMatchesReference(f *testing.F) {
	f.Add(uint8(7), uint8(0), uint8(0), uint8(0), false, uint16(0), int64(model.MB), int64(256*model.KB), int64(512*model.MB), 600.0, 20e9, 18e9, 0.5)
	f.Add(uint8(7), uint8(5), uint8(9), uint8(4), false, uint16(256), int64(4*model.MB), int64(model.MB), int64(512*model.MB), 0.0, 1.5e9, 1.5e9, 0.0)
	f.Add(uint8(1), uint8(3), uint8(2), uint8(0), true, uint16(1024), int64(0), int64(0), int64(0), 30.0, 1e8, 2e8, 1.0)
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), false, uint16(0), int64(64*model.MB), int64(8*model.MB), int64(12*model.GB), 3600.0, 4e11, 5e11, 0.9)
	f.Add(uint8(4), uint8(15), uint8(0), uint8(15), false, uint16(0), int64(model.KB), int64(model.KB), int64(model.MB), 0.5, 5e10, 5e10, 0.2)

	f.Fuzz(func(t *testing.T, subset, devBacklog, edgeQueue, vmQueue uint8, dead bool, edgeMemMB uint16,
		in, out, mem int64, deadline, cycles, predicted, parallel float64) {
		env := fuzzEnv(subset, devBacklog, edgeQueue, vmQueue, dead, edgeMemMB)
		in, out, mem = in&(1<<32-1), out&(1<<32-1), mem&(1<<36-1)
		deadline = finite(deadline, 1e6)
		cycles, predicted = finite(cycles, 1e13), finite(predicted, 1e13)
		parallel = finite(parallel, 1)
		task := &model.Task{ID: 1, App: "fuzz", InputBytes: in, OutputBytes: out,
			Cycles: cycles, MemoryBytes: mem, ParallelFraction: parallel, Deadline: sim.Duration(deadline)}

		same := func(what string, p model.Placement, want, got float64) {
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("%s at %v: reference %v (%#x), Estimate %v (%#x)",
					what, p, want, math.Float64bits(want), got, math.Float64bits(got))
			}
		}

		ref := refDeadlineAwareEstimates(task, env, predicted)
		predTask := *task
		predTask.Cycles = predicted
		for _, r := range ref {
			if r.placement == model.PlaceUnknown {
				continue // absent substrate
			}
			e := env.Estimate(r.placement, &predTask)
			if e.OK != r.ok {
				t.Fatalf("ok at %v: reference %v, Estimate %v", r.placement, r.ok, e.OK)
			}
			same("time", r.placement, r.time, e.Time())
			same("energy", r.placement, r.energyJ, e.EnergyJ)
			same("money", r.placement, r.moneyUSD, e.MoneyUSD)
		}
		for p := model.PlaceLocal; p < model.NumPlacements; p++ {
			if served := ref[p-1].placement == p; served != env.Serves(p) {
				t.Fatalf("Serves(%v) = %v, reference table says %v", p, env.Serves(p), served)
			}
		}

		job := New("fuzz", sim.Duration(deadline))
		job.MustAddNode(Node{Name: "n", Cycles: cycles, MemoryBytes: mem,
			InputBytes: in, OutputBytes: out, ParallelFraction: parallel})
		if err := job.Validate(); err != nil {
			t.Fatal(err)
		}
		pred := constPredictor(predicted)
		want := refNodeEstimates(job, 0, env, pred, new(model.Task))
		got := nodePhases(job, 0, env, env.Available(), pred, new(model.Task))
		for p := range want {
			same("up", model.Placement(p), want[p].up, got[p].up)
			same("exec", model.Placement(p), want[p].exec, got[p].exec)
			same("down", model.Placement(p), want[p].down, got[p].down)
		}
	})
}
