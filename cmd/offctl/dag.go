package main

import (
	"flag"
	"fmt"
	"io"

	"offload/internal/callgraph"
	"offload/internal/dag"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sim"
	"offload/internal/workload"
)

// runDAG implements `offctl dag`: build a DAG job — either by converting
// an application call graph (-app/-spec) or by drawing one from the
// random generator family (-shape) — and print its structure as a table
// or Graphviz DOT.
func runDAG(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dag", flag.ExitOnError)
	appFlag := fs.String("app", "", "convert a built-in application template")
	specFlag := fs.String("spec", "", "convert a JSON application spec")
	shapeFlag := fs.String("shape", "", "generate: pipeline, fork-join or layered")
	nodesFlag := fs.Int("nodes", 8, "generate: nodes per job")
	widthFlag := fs.Int("width", 3, "generate: max nodes per layer (layered)")
	seedFlag := fs.Uint64("seed", 1, "generate: RNG seed")
	dotFlag := fs.Bool("dot", false, "emit Graphviz DOT instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var job *dag.Job
	switch {
	case *shapeFlag != "":
		tmpl := workload.JobTemplate{
			App:         "dag-" + *shapeFlag,
			Shape:       workload.JobShape(*shapeFlag),
			Nodes:       *nodesFlag,
			Width:       *widthFlag,
			MeanCycles:  2e9,
			CyclesSigma: 0.25,
			EdgeBytes:   2 * model.MB,
			InputBytes:  4 * model.MB,
			OutputBytes: 1 * model.MB,
			Deadline:    3600,
		}
		gen, err := workload.NewJobGenerator(rng.New(*seedFlag), tmpl)
		if err != nil {
			return err
		}
		job = gen.Next()
		if err := job.Validate(); err != nil {
			return err
		}
	case *appFlag != "" || *specFlag != "":
		g, err := loadGraph(*appFlag, *specFlag)
		if err != nil {
			return err
		}
		job, err = workload.JobFromGraph(g)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("dag: need -app, -spec or -shape (templates: %v)",
			callgraph.TemplateNames())
	}

	if *dotFlag {
		fmt.Fprint(w, job.DOT())
		return nil
	}

	fmt.Fprintf(w, "job: %s\nnodes: %d, edges: %d, total demand: %.3g Gcyc, deadline: %s\n",
		job.App(), job.Len(), len(job.Edges()), job.TotalCycles()/1e9, fmtDeadline(job.Deadline()))
	tbl := metrics.NewTable("nodes in topological order",
		"node", "gcycles", "in_bytes", "out_bytes", "preds", "succs")
	for _, id := range job.TopoOrder() {
		n := job.Node(id)
		in, out := job.TaskSizes(id)
		tbl.Add(n.Name, fmt.Sprintf("%.3g", n.Cycles/1e9), in, out, len(job.Preds(id)), len(job.Succs(id)))
	}
	fmt.Fprintln(w, tbl.String())
	return nil
}

func fmtDeadline(d sim.Duration) string {
	if d <= 0 {
		return "none"
	}
	return fmt.Sprintf("%gs", float64(d))
}
