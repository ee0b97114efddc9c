package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"offload/internal/exp"
)

// suiteExperiments is the full registry minus E21, whose full-scale
// million-UE drill takes minutes and which fleet-flash covers.
func suiteExperiments() []exp.Experiment {
	var out []exp.Experiment
	for _, e := range exp.Registry() {
		if e.ID != "E21" {
			out = append(out, e)
		}
	}
	return out
}

// splitSections cuts offbench's text output into its per-experiment
// sections, keyed by experiment ID. A section runs from its "### <ID> — "
// heading to the next heading or the end of the output.
func splitSections(text string) map[string]string {
	out := map[string]string{}
	var id string
	var cur strings.Builder
	flush := func() {
		if id != "" {
			out[id] = cur.String()
		}
		cur.Reset()
	}
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, "### ") {
			flush()
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "### "), " ")
		}
		cur.WriteString(line)
	}
	flush()
	return out
}

// renderSection renders one experiment result exactly as offbench prints
// it in text mode.
func renderSection(res exp.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", res.ID, res.Claim)
	for _, t := range res.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}

// checkSections compares rendered sections with the committed ones: every
// experiment's section must be byte-identical to its golden section.
func checkSections(rendered, golden map[string]string) error {
	var bad []string
	for id, got := range rendered {
		want, ok := golden[id]
		switch {
		case !ok:
			bad = append(bad, id+" (no committed section)")
		case got != want:
			bad = append(bad, id)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("suite-full: sections differ from the committed output: %s", strings.Join(bad, ", "))
	}
	return nil
}

// checkGolden compares rendered sections with the committed suite output
// at path.
func checkGolden(path string, sections map[string]string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return checkSections(sections, splitSections(string(raw)))
}

// suitePass is one run of the suite through exp.Runner.
type suitePass struct {
	pass
	results  []exp.Result
	sections map[string]string
}

// runSuitePass runs the suite at full scale with the given worker count
// and renders every result the way offbench prints it.
func runSuitePass(parallel int, sp *spanRecorder, parent uint64) (suitePass, error) {
	var p suitePass
	r := &exp.Runner{Scale: exp.Full(), Parallel: parallel}
	exps := suiteExperiments()
	runtime.GC() // start every pass from the same heap state, untimed
	before := totalAlloc()
	var err error
	sp.do("run", parent, func(uint64) {
		t0 := time.Now()
		p.results, err = r.Run(context.Background(), exps)
		p.run = time.Since(t0)
	})
	p.allocBytes = totalAlloc() - before
	if err != nil {
		return p, fmt.Errorf("suite-full: %w", err)
	}
	sp.do("summarise", parent, func(uint64) {
		p.sections = map[string]string{}
		for _, res := range p.results {
			p.sections[res.ID] = renderSection(res)
		}
	})
	return p, nil
}

// suiteFull is the suite-full workload: the offbench suite at full scale,
// E21 left out, through exp.Runner with nproc workers, checked against
// the committed output on every pass. A pass's set-up is what a suite
// user pays before any experiment starts: exec of the offbench CLI to its
// exit after listing the registry.
func suiteFull(e *env, sp *spanRecorder) outcome {
	return runPasses(e, sp, float64(len(suiteExperiments())), func(parent uint64) (pass, error) {
		id := sp.begin("setup", parent)
		t0 := time.Now()
		err := exec.Command(e.offbench, "-list").Run()
		setup := time.Since(t0)
		sp.end(id)
		if err != nil {
			return pass{}, fmt.Errorf("offbench -list: %w", err)
		}
		p, err := runSuitePass(e.nproc, sp, parent)
		p.setup = setup
		if err == nil {
			err = checkGolden(e.golden, p.sections)
		}
		return p.pass, err
	})
}
