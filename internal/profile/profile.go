// Package profile determines the computational demands of application
// components — the first of the paper's contributions. It provides:
//
//   - estimators that learn a component's demand from observed executions
//     (a least-squares linear model in input size, an EWMA, and a sliding
//     window quantile for conservative planning);
//   - a measurement model (Meter) that injects realistic multiplicative
//     profiling noise, the ablation knob for experiment E10;
//   - a Catalog that profiles every component of a call graph and serves
//     predictions to the allocator and scheduler.
package profile

import (
	"fmt"
	"math"
	"sort"

	"offload/internal/callgraph"
	"offload/internal/rng"
)

// Estimator predicts a component's computational demand (cycles) for a
// given input size, learning from observations.
type Estimator interface {
	// Observe records one measured execution.
	Observe(inputBytes int64, cycles float64)
	// Predict estimates the demand for an input of the given size.
	// Estimators with no observations return 0.
	Predict(inputBytes int64) float64
	// N returns the number of observations seen.
	N() int
}

// LinearModel fits cycles = a + b·inputBytes by ordinary least squares,
// updated incrementally. With fewer than two distinct input sizes it
// degrades to the running mean.
type LinearModel struct {
	n                        int
	sumX, sumY, sumXY, sumXX float64
}

var _ Estimator = (*LinearModel)(nil)

// Observe implements Estimator.
func (l *LinearModel) Observe(inputBytes int64, cycles float64) {
	x := float64(inputBytes)
	l.n++
	l.sumX += x
	l.sumY += cycles
	l.sumXY += x * cycles
	l.sumXX += x * x
}

// Coefficients returns the fitted intercept and slope.
func (l *LinearModel) Coefficients() (a, b float64) {
	if l.n == 0 {
		return 0, 0
	}
	nf := float64(l.n)
	det := nf*l.sumXX - l.sumX*l.sumX
	if det <= 1e-12*nf*l.sumXX || det == 0 {
		// All inputs (numerically) identical: mean-only model.
		return l.sumY / nf, 0
	}
	b = (nf*l.sumXY - l.sumX*l.sumY) / det
	a = (l.sumY - b*l.sumX) / nf
	return a, b
}

// Predict implements Estimator. Predictions are clamped at zero: demand is
// never negative even if the fit's intercept is.
func (l *LinearModel) Predict(inputBytes int64) float64 {
	a, b := l.Coefficients()
	p := a + b*float64(inputBytes)
	if p < 0 {
		return 0
	}
	return p
}

// N implements Estimator.
func (l *LinearModel) N() int { return l.n }

// EWMA tracks an exponentially weighted moving average of demand,
// independent of input size. It adapts quickly to drift, which the CI/CD
// re-partitioning stage exploits.
type EWMA struct {
	alpha float64
	n     int
	value float64
}

var _ Estimator = (*EWMA)(nil)

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("profile: EWMA alpha %g outside (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe implements Estimator.
func (e *EWMA) Observe(_ int64, cycles float64) {
	if e.n == 0 {
		e.value = cycles
	} else {
		e.value = e.alpha*cycles + (1-e.alpha)*e.value
	}
	e.n++
}

// Predict implements Estimator.
func (e *EWMA) Predict(int64) float64 { return e.value }

// N implements Estimator.
func (e *EWMA) N() int { return e.n }

// WindowQuantile predicts a configurable quantile of the last W
// observations. Planners that must hold a deadline use a high quantile so
// underestimates are rare.
type WindowQuantile struct {
	window int
	q      float64
	buf    []float64
	next   int
	n      int
}

var _ Estimator = (*WindowQuantile)(nil)

// NewWindowQuantile returns a quantile estimator over a window of w
// observations. q must be in [0, 1].
func NewWindowQuantile(w int, q float64) *WindowQuantile {
	if w <= 0 {
		panic(fmt.Sprintf("profile: window %d not positive", w))
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("profile: quantile %g outside [0,1]", q))
	}
	return &WindowQuantile{window: w, q: q, buf: make([]float64, 0, w)}
}

// Observe implements Estimator.
func (wq *WindowQuantile) Observe(_ int64, cycles float64) {
	if len(wq.buf) < wq.window {
		wq.buf = append(wq.buf, cycles)
	} else {
		wq.buf[wq.next] = cycles
		wq.next = (wq.next + 1) % wq.window
	}
	wq.n++
}

// Predict implements Estimator.
func (wq *WindowQuantile) Predict(int64) float64 {
	if len(wq.buf) == 0 {
		return 0
	}
	sorted := make([]float64, len(wq.buf))
	copy(sorted, wq.buf)
	sort.Float64s(sorted)
	idx := int(math.Ceil(wq.q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// N implements Estimator.
func (wq *WindowQuantile) N() int { return wq.n }

// Meter models the measurement process: observing a true demand yields the
// truth perturbed by multiplicative lognormal noise with relative standard
// deviation RelStd. RelStd = 0 measures exactly.
type Meter struct {
	src    *rng.Source
	relStd float64
}

// NewMeter returns a Meter drawing noise from src. RelStd must be >= 0.
func NewMeter(src *rng.Source, relStd float64) *Meter {
	if relStd < 0 {
		panic(fmt.Sprintf("profile: negative measurement noise %g", relStd))
	}
	return &Meter{src: src, relStd: relStd}
}

// Measure returns a noisy observation of trueCycles.
func (m *Meter) Measure(trueCycles float64) float64 {
	if m.relStd == 0 {
		return trueCycles
	}
	// Lognormal with unit mean: mu = -sigma²/2.
	sigma := math.Sqrt(math.Log(1 + m.relStd*m.relStd))
	return trueCycles * m.src.LogNormal(-sigma*sigma/2, sigma)
}

// ComponentProfile summarises one component's measured demand.
type ComponentProfile struct {
	Name        string
	MeanCycles  float64
	P95Cycles   float64
	MemoryBytes int64
	Runs        int
}

// RelativeError returns |mean - truth| / truth, the E10 accuracy metric.
func (p ComponentProfile) RelativeError(truth float64) float64 {
	if truth == 0 {
		return 0
	}
	return math.Abs(p.MeanCycles-truth) / truth
}

// Catalog holds fitted demand profiles for every component of an app.
type Catalog struct {
	app      string
	profiles map[string]ComponentProfile
}

// BuildCatalog profiles every component of g by taking runs noisy
// measurements through meter. runs must be positive.
func BuildCatalog(g *callgraph.Graph, meter *Meter, runs int) (*Catalog, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if runs <= 0 {
		return nil, fmt.Errorf("profile: runs must be positive, got %d", runs)
	}
	c := &Catalog{app: g.Name(), profiles: make(map[string]ComponentProfile, g.Len())}
	for _, comp := range g.Components() {
		wq := NewWindowQuantile(runs, 0.95)
		sum := 0.0
		for i := 0; i < runs; i++ {
			obs := meter.Measure(comp.Cycles)
			sum += obs
			wq.Observe(0, obs)
		}
		c.profiles[comp.Name] = ComponentProfile{
			Name:        comp.Name,
			MeanCycles:  sum / float64(runs),
			P95Cycles:   wq.Predict(0),
			MemoryBytes: comp.MemoryBytes,
			Runs:        runs,
		}
	}
	return c, nil
}

// App returns the profiled application's name.
func (c *Catalog) App() string { return c.app }

// Lookup returns the profile for a component name.
func (c *Catalog) Lookup(name string) (ComponentProfile, bool) {
	p, ok := c.profiles[name]
	return p, ok
}

// Profiles returns all component profiles, sorted by name.
func (c *Catalog) Profiles() []ComponentProfile {
	out := make([]ComponentProfile, 0, len(c.profiles))
	for _, p := range c.profiles {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EstimatedGraph returns a copy of g whose component cycle counts are
// replaced by the catalog's mean estimates — the graph the partitioner
// actually sees, as opposed to ground truth.
func (c *Catalog) EstimatedGraph(g *callgraph.Graph) (*callgraph.Graph, error) {
	est := callgraph.New(g.Name())
	for _, comp := range g.Components() {
		p, ok := c.profiles[comp.Name]
		if !ok {
			return nil, fmt.Errorf("profile: catalog for %s missing component %q", c.app, comp.Name)
		}
		comp.Cycles = p.MeanCycles
		if _, err := est.AddComponent(comp); err != nil {
			return nil, err
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if err := est.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return est, nil
}
