// Quickstart: assemble the default offloading environment, stream a mixed
// non-time-critical workload through the deadline-aware policy, and print
// what it cost in time, money and battery.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"offload"
)

func main() {
	// A smartphone with an edge site, a Lambda-like serverless region and
	// a small VM — everything the policy may choose between.
	cfg := offload.DefaultConfig()
	cfg.Policy = offload.PolicyDeadlineAware
	cfg.ArrivalRateHint = 0.02 // ~72 tasks/hour

	sys, err := offload.NewSystem(cfg)
	if err != nil {
		panic(err)
	}

	// An even mix of the five built-in applications: video transcoding,
	// ML batch inference, photo pipelines, report generation, scientific
	// batch jobs. All are delay tolerant (deadlines in minutes to hours).
	gen, err := offload.StandardMix(sys.Src.Split())
	if err != nil {
		panic(err)
	}
	sys.SubmitStream(offload.NewPoisson(sys.Src.Split(), 0.02), gen, 200)
	sys.Run()

	// Report is the same summary the offloadd daemon serves — one source
	// of truth for every consumer.
	rep := sys.Report()
	fmt.Printf("tasks completed:   %d (failed %d)\n", rep.Completed, rep.Failed)
	fmt.Printf("mean completion:   %.1f s (p95 %.1f s)\n", rep.MeanCompletionS, rep.P95CompletionS)
	fmt.Printf("deadline misses:   %.1f%%\n", 100*rep.MissRate)
	fmt.Printf("marginal cost:     $%.6f per task\n", rep.CostPerTaskUSD)
	fmt.Printf("infrastructure:    $%.4f accrued\n", rep.InfraCostUSD)
	fmt.Printf("device energy:     %.0f mJ per task\n", rep.EnergyPerTaskMilliJ)
	fmt.Println("\nwhere the work ran:")
	for p, n := range sys.Stats().ByPlacement {
		if n > 0 {
			fmt.Printf("  %-10s %d\n", offload.Placement(p), n)
		}
	}
}
