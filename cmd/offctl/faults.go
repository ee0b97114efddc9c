package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"offload/internal/core"
	"offload/internal/fault"
)

// faultsSpec is the JSON shape "offctl faults" reads: the fault-related
// subset of core.Config, so a config can be reviewed before a run.
type faultsSpec struct {
	Fault     *fault.Config
	EdgeFault *fault.Config
	VMFault   *fault.Config
	Regions   *core.RegionsConfig
}

// runFaults implements "offctl faults -config file.json": it validates
// the fault and region configuration and prints the composed injector
// stack each backend faces, in Decide's draw order — the regional
// schedule first (it is chained in front), then the backend's own fault
// model.
func runFaults(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	cfgPath := fs.String("config", "", "path to a JSON fault configuration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cfgPath == "" {
		return fmt.Errorf("faults: -config is required")
	}
	data, err := os.ReadFile(*cfgPath)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec faultsSpec
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("faults: %v", err)
	}
	return describeFaults(w, spec)
}

func describeFaults(w io.Writer, spec faultsSpec) error {
	schedules := map[string]fault.RegionSchedule{}
	if spec.Regions != nil {
		for _, sch := range spec.Regions.Schedules {
			if err := sch.Validate(); err != nil {
				return err
			}
			if _, dup := schedules[sch.Region]; dup {
				return fmt.Errorf("faults: duplicate region schedule for %q", sch.Region)
			}
			schedules[sch.Region] = sch
		}
	}
	region := func(pick func(*core.RegionsConfig) string) string {
		if spec.Regions == nil {
			return ""
		}
		return pick(spec.Regions)
	}
	backends := []struct {
		name   string
		region string
		own    *fault.Config
	}{
		{"serverless", region(func(rc *core.RegionsConfig) string { return rc.Serverless }), spec.Fault},
		{"edge", region(func(rc *core.RegionsConfig) string { return rc.Edge }), spec.EdgeFault},
		{"vm", region(func(rc *core.RegionsConfig) string { return rc.VM }), spec.VMFault},
	}
	used := map[string]bool{}
	for _, b := range backends {
		if b.region != "" {
			fmt.Fprintf(w, "%s  region=%s\n", b.name, b.region)
		} else {
			fmt.Fprintf(w, "%s\n", b.name)
		}
		var lines []string
		if sch, ok := schedules[b.region]; ok && b.region != "" {
			used[b.region] = true
			for _, l := range sch.Config().Describe() {
				lines = append(lines, "regional  "+l)
			}
		}
		if b.own != nil {
			if err := b.own.Validate(); err != nil {
				return err
			}
			for _, l := range b.own.Describe() {
				lines = append(lines, "own       "+l)
			}
		}
		if len(lines) == 0 {
			lines = []string{"(none)"}
		}
		for _, l := range lines {
			fmt.Fprintf(w, "  %s\n", l)
		}
	}
	if spec.Regions != nil {
		for _, sch := range spec.Regions.Schedules {
			if !used[sch.Region] {
				return fmt.Errorf("faults: region schedule for %q matches no backend", sch.Region)
			}
		}
	}
	if spec.Regions != nil && spec.Regions.Failover != nil {
		fo := spec.Regions.Failover
		fmt.Fprintf(w, "failover  threshold=%d probe_every=%gs\n",
			fo.FailureThreshold, float64(fo.ProbeEvery))
		if l := fo.Ladder; l != nil {
			fmt.Fprintf(w, "  ladder  shed-low@%gs localize-critical@%gs queue-and-wait@%gs\n",
				float64(l.ShedLowAfter), float64(l.LocalizeAfter), float64(l.QueueAfter))
		}
	}
	return nil
}
