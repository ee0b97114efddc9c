package exp

import (
	"testing"

	"offload/internal/callgraph"
	"offload/internal/sim"
	"offload/internal/workload"
)

func TestFormattingHelpers(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{pct(0.123), "12.3%"},
		{pct(0), "0.0%"},
		{usd(0), "$0"},
		{usd(0.0005), "$5.00e-04"},
		{usd(1.5), "$1.5000"},
		{seconds(12.345), "12.3s"},
		{fmtMilliJ(500), "500mJ"},
		{fmtMilliJ(2500), "2.5J"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("formatted %q, want %q", tt.got, tt.want)
		}
	}
}

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
