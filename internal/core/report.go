package core

import (
	"offload/internal/metrics"
	"offload/internal/trace"
)

// Report is the run summary every consumer reads from the same place: the
// examples and the offloadd daemon's /v1/report endpoint see identical
// numbers because they all come through here.
type Report struct {
	Policy PolicyName

	Completed uint64
	Failed    uint64
	Missed    uint64
	Retries   uint64
	Timeouts  uint64
	Hedges    uint64
	Fallbacks uint64

	MeanCompletionS float64
	P95CompletionS  float64
	MissRate        float64

	// Spend splits by task fate; CompletedCostUSD + FailedCostUSD equals
	// the platforms' per-task billing.
	CompletedCostUSD float64
	FailedCostUSD    float64
	InfraCostUSD     float64 // provisioning, instance-hours, capacity fees

	CostPerTaskUSD      float64 // total per-task spend / completed tasks
	EnergyPerTaskMilliJ float64

	ColdStartFraction float64 // 0 when no serverless platform is present

	// Phases is the critical-path phase breakdown over all completed
	// tasks — mean seconds on the critical path and share of total
	// completion time per phase. Filled only when EnableSpans was called
	// before the run; empty otherwise, so span-free reports are
	// unchanged.
	Phases []PhaseShare

	// Job-level summaries, filled only when the configuration carries a
	// DAG block and jobs were submitted; zero otherwise, so task-only
	// reports are unchanged.
	Jobs          uint64
	JobsFailed    uint64
	NodesSkipped  uint64
	MeanMakespanS float64
	P95MakespanS  float64
	MeanCritS     float64 // mean summed critical-path seconds per job
	MeanSlackS    float64 // mean per-node earliest-start slack
}

// PhaseShare is one critical-path phase's contribution to completion
// time across the run.
type PhaseShare struct {
	Phase string
	MeanS float64 // mean critical-path seconds per completed task
	Share float64 // fraction of total completion time
}

// TotalCostUSD returns all money spent: per-task billing for completed and
// failed tasks plus infrastructure accrual.
func (r Report) TotalCostUSD() float64 {
	return r.CompletedCostUSD + r.FailedCostUSD + r.InfraCostUSD
}

// Report summarises the run so far. Call after System.Run.
func (s *System) Report() Report {
	st := s.Stats()
	r := Report{
		Policy:              s.cfg.Policy,
		Completed:           st.Completed,
		Failed:              st.Failed,
		Missed:              st.Missed,
		Retries:             st.Retries,
		Timeouts:            st.Timeouts,
		Hedges:              st.Hedges,
		Fallbacks:           st.Fallbacks,
		MeanCompletionS:     st.MeanCompletion(),
		P95CompletionS:      st.P95Completion(),
		MissRate:            st.MissRate(),
		CompletedCostUSD:    st.CostUSD,
		FailedCostUSD:       st.FailedCostUSD,
		InfraCostUSD:        s.InfrastructureCostUSD(),
		CostPerTaskUSD:      st.CostPerTask(),
		EnergyPerTaskMilliJ: st.EnergyPerTaskMilliJ(),
	}
	if p := s.Platform(); p != nil {
		r.ColdStartFraction = p.ColdStartFraction()
	}
	if js := s.JobStats(); js != nil {
		r.Jobs = js.Jobs
		r.JobsFailed = js.Failed
		r.NodesSkipped = js.NodesSkipped
		r.MeanMakespanS = js.MeanMakespanS()
		r.P95MakespanS = js.P95MakespanS()
		r.MeanCritS = js.MeanCritPathS()
		r.MeanSlackS = js.MeanSlackS()
	}
	if set := s.SpanSet(); set != nil {
		if g := trace.Attribute(set).Group("all"); g != nil {
			for _, phase := range trace.Phases {
				ps := g.Phase[phase]
				if ps.MeanS == 0 {
					continue
				}
				r.Phases = append(r.Phases, PhaseShare{
					Phase: phase, MeanS: ps.MeanS, Share: ps.ShareMean,
				})
			}
		}
	}
	return r
}

// Table renders the report as a two-column metrics.Table for printing.
func (r Report) Table() *metrics.Table {
	t := metrics.NewTable("run report · policy="+string(r.Policy), "metric", "value")
	t.AddRowf("completed", r.Completed)
	t.AddRowf("failed", r.Failed)
	t.AddRowf("missed deadline", r.Missed)
	t.AddRowf("retries", r.Retries)
	t.AddRowf("timeouts", r.Timeouts)
	t.AddRowf("hedges", r.Hedges)
	t.AddRowf("fallbacks", r.Fallbacks)
	t.AddRowf("mean completion (s)", fmtF(r.MeanCompletionS))
	t.AddRowf("p95 completion (s)", fmtF(r.P95CompletionS))
	t.AddRowf("miss rate", fmtF(r.MissRate))
	t.AddRowf("cost completed (USD)", fmtF(r.CompletedCostUSD))
	t.AddRowf("cost failed (USD)", fmtF(r.FailedCostUSD))
	t.AddRowf("cost infra (USD)", fmtF(r.InfraCostUSD))
	t.AddRowf("cost total (USD)", fmtF(r.TotalCostUSD()))
	t.AddRowf("cost per task (USD)", fmtF(r.CostPerTaskUSD))
	t.AddRowf("energy per task (mJ)", fmtF(r.EnergyPerTaskMilliJ))
	t.AddRowf("cold-start fraction", fmtF(r.ColdStartFraction))
	for _, ph := range r.Phases {
		t.AddRowf("phase "+ph.Phase+" (s)", fmtF(ph.MeanS))
	}
	if r.Jobs > 0 {
		t.AddRowf("jobs", r.Jobs)
		t.AddRowf("jobs failed", r.JobsFailed)
		t.AddRowf("nodes skipped", r.NodesSkipped)
		t.AddRowf("mean makespan (s)", fmtF(r.MeanMakespanS))
		t.AddRowf("p95 makespan (s)", fmtF(r.P95MakespanS))
		t.AddRowf("mean critical path (s)", fmtF(r.MeanCritS))
		t.AddRowf("mean node slack (s)", fmtF(r.MeanSlackS))
	}
	return t
}

func fmtF(v float64) string {
	return metrics.FormatFloat(v)
}
