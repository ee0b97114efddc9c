package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/sim"
)

// inprocPhase is how long the in-process serve path is driven.
const inprocPhase = 2 * time.Second

// inprocRepeats is how often the registry snapshot and its Prometheus
// rendering are timed.
const inprocRepeats = 20

// inprocServe drives core.Server directly, without HTTP, on the wall clock
// at x1: Server.Submit calls at the reference rate from one goroutine, and
// every tenth call a Server.Report round trip through the loop's inbox.
// It then times the registry snapshot and its Prometheus rendering, and
// drains. The figures isolate the scheduler and the loop from the
// daemon's HTTP and JSON layers.
func inprocServe(seed uint64, sp *spanRecorder) (map[string]float64, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	srv, err := core.NewServer(cfg, sim.NewWallClock(1), 100000)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	specs := seededSpecs(seed, serveBodyPool)
	root := sp.begin("phase.inproc", 0)
	var submitUS, loopMS []float64
	rate := serveRefRate
	n := int(rate * inprocPhase.Seconds())
	gap := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if wait := time.Duration(i)*gap - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		if i%serveReadEvery == serveReadEvery-1 {
			id := sp.begin("loop.call", root)
			c0 := time.Now()
			_, ok := srv.Report()
			loopMS = append(loopMS, ms(time.Since(c0)))
			sp.end(id)
			if !ok {
				sp.end(root)
				srv.Close()
				return nil, fmt.Errorf("in-process server stopped")
			}
			continue
		}
		task := specs[i%len(specs)].task()
		id := sp.begin("server.submit", root)
		c0 := time.Now()
		_, err := srv.Submit(task, nil)
		submitUS = append(submitUS, float64(time.Since(c0))/float64(time.Microsecond))
		sp.end(id)
		if err != nil {
			sp.end(root)
			srv.Close()
			return nil, fmt.Errorf("in-process submit: %w", err)
		}
	}
	sp.end(root)

	var regMS, promMS []float64
	var promBytes int
	for range inprocRepeats {
		c0 := time.Now()
		reg, ok := srv.Registry("serve")
		regMS = append(regMS, ms(time.Since(c0)))
		if !ok {
			srv.Close()
			return nil, fmt.Errorf("in-process server stopped")
		}
		var buf bytes.Buffer
		c0 = time.Now()
		if err := metrics.WritePrometheus(&buf, reg); err != nil {
			srv.Close()
			return nil, err
		}
		promMS = append(promMS, ms(time.Since(c0)))
		promBytes = buf.Len()
	}

	ctx, cancel := context.WithTimeout(context.Background(), serveDrainTimeout)
	defer cancel()
	left, err := srv.Drain(ctx)
	if err != nil {
		return nil, err
	}
	if left != 0 {
		return nil, fmt.Errorf("in-process server drained with %d tasks in flight", left)
	}
	return map[string]float64{
		"core.server.submit_p50_us": median(submitUS),
		"core.server.submit_p90_us": quantile(submitUS, 0.9),
		"sim.loop_call_p50_ms":      median(loopMS),
		"sim.loop_call_p90_ms":      quantile(loopMS, 0.9),
		"metrics.registry_ms":       median(regMS),
		"metrics.prom_write_ms":     median(promMS),
		"metrics.prom_bytes":        float64(promBytes),
	}, nil
}

// task builds the model task offloadd would build from the same spec.
func (s taskSpec) task() *model.Task {
	return &model.Task{
		App:         s.App,
		InputBytes:  s.InputBytes,
		OutputBytes: s.OutputBytes,
		Cycles:      s.Cycles,
		MemoryBytes: 256 << 20,
		Deadline:    sim.Duration(s.DeadlineS),
	}
}
