package exp

import (
	"testing"

	"offload/internal/callgraph"
	"offload/internal/sim"
	"offload/internal/workload"
)

func TestScaleDeadlines(t *testing.T) {
	mix, err := workload.Mix(callgraph.TemplateNames()...)
	if err != nil {
		t.Fatal(err)
	}
	scaled := scaleDeadlines(mix, 0.5)
	for i := range mix {
		want := sim.Duration(float64(mix[i].Template.Deadline) * 0.5)
		if scaled[i].Template.Deadline != want {
			t.Errorf("%s: deadline %v, want %v",
				mix[i].Template.App, scaled[i].Template.Deadline, want)
		}
		// The original mix must be untouched.
		if mix[i].Template.Deadline == scaled[i].Template.Deadline {
			t.Errorf("%s: scaleDeadlines mutated its input", mix[i].Template.App)
		}
	}
}
