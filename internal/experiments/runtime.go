package experiments

import (
	"fmt"
	"time"

	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/search"
	"pcbl/internal/textplot"
)

// RuntimePoint is one x-value of a runtime sweep (Fig 6, 7, 8).
type RuntimePoint struct {
	// X is the sweep variable: the bound (Fig 6), the row count (Fig 7)
	// or the attribute count (Fig 8).
	X int
	// Naive is the naive algorithm's total runtime; negative when the run
	// was skipped under the naive budget (the paper's ">30 minutes" case).
	Naive time.Duration
	// NaiveSkipped records a budget skip.
	NaiveSkipped bool
	// Optimized is Algorithm 1's total runtime.
	Optimized time.Duration
	// OptimizedEvalShare is the fraction of the optimized runtime spent
	// finding the best candidate. §IV-C reports 62.6% / 18% / 44.4%, from
	// building a label per candidate; this search scores candidates
	// through a row index and builds only the winner's label (a beyond-
	// paper optimization, result-identical), so the share no longer
	// follows the paper's cost model.
	OptimizedEvalShare float64
	// NaiveExamined / OptimizedExamined are the candidate-set counters
	// (also the Fig 9 measurement).
	NaiveExamined     int
	OptimizedExamined int
	// OptimizedInBound is the number of generated sets within the bound.
	OptimizedInBound int
}

// RuntimeResult is a full runtime sweep.
type RuntimeResult struct {
	Dataset string
	XName   string
	Figure  string
	Points  []RuntimePoint
}

// RunGenTimeByBound regenerates Fig 6: label generation runtime as a
// function of the size bound, naive vs optimized.
func RunGenTimeByBound(nd NamedDataset, cfg Config) (*RuntimeResult, error) {
	cfg = cfg.WithDefaults()
	ps := core.DistinctTuples(nd.D)
	res := &RuntimeResult{Dataset: nd.Name, XName: "bound", Figure: "Fig 6"}
	naiveOver := false
	for _, bound := range nd.Bounds {
		pt, err := measurePoint(nd, ps, bound, cfg, &naiveOver)
		if err != nil {
			return nil, err
		}
		pt.X = bound
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

// RunGenTimeByDataSize regenerates Fig 7: runtime at bound 50 as the data
// grows ×1..×maxFactor through random-tuple augmentation.
func RunGenTimeByDataSize(nd NamedDataset, cfg Config, maxFactor int) (*RuntimeResult, error) {
	cfg = cfg.WithDefaults()
	if maxFactor < 1 {
		return nil, fmt.Errorf("experiments: maxFactor must be ≥ 1, got %d", maxFactor)
	}
	res := &RuntimeResult{Dataset: nd.Name, XName: "rows", Figure: "Fig 7"}
	naiveOver := false
	for factor := 1; factor <= maxFactor; factor++ {
		scaled, err := datagen.Scale(nd.D, factor, cfg.Seed+uint64(factor))
		if err != nil {
			return nil, err
		}
		ps := core.DistinctTuples(scaled)
		snd := NamedDataset{Name: nd.Name, D: scaled}
		pt, err := measurePoint(snd, ps, 50, cfg, &naiveOver)
		if err != nil {
			return nil, err
		}
		pt.X = scaled.NumRows()
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

// RunGenTimeByAttrCount regenerates Fig 8: runtime at bound 50 as the
// number of attributes grows from 3 to |A| (prefix projections, as adding
// attributes one at a time in schema order).
func RunGenTimeByAttrCount(nd NamedDataset, cfg Config) (*RuntimeResult, error) {
	cfg = cfg.WithDefaults()
	res := &RuntimeResult{Dataset: nd.Name, XName: "attributes", Figure: "Fig 8"}
	naiveOver := false
	for k := 3; k <= nd.D.NumAttrs(); k++ {
		proj, err := nd.D.Prefix(k)
		if err != nil {
			return nil, err
		}
		ps := core.DistinctTuples(proj)
		pnd := NamedDataset{Name: nd.Name, D: proj}
		pt, err := measurePoint(pnd, ps, 50, cfg, &naiveOver)
		if err != nil {
			return nil, err
		}
		pt.X = k
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

// measurePoint times both algorithms once at the given bound. naiveOver
// latches when a naive run exceeds the budget; subsequent points skip the
// naive algorithm (monotone sweeps only get more expensive).
func measurePoint(nd NamedDataset, ps *core.PatternSet, bound int, cfg Config, naiveOver *bool) (*RuntimePoint, error) {
	opts := search.Options{Bound: bound, FastEval: true, CountOptions: core.CountOptions{Workers: cfg.Workers}}
	pt := &RuntimePoint{}

	top, err := search.TopDown(nd.D, ps, opts)
	if err != nil {
		return nil, err
	}
	pt.Optimized = top.Stats.Total()
	pt.OptimizedExamined = top.Stats.SizeComputed
	pt.OptimizedInBound = top.Stats.InBound
	if t := top.Stats.Total(); t > 0 {
		pt.OptimizedEvalShare = float64(top.Stats.EvalTime) / float64(t)
	}

	if *naiveOver {
		pt.NaiveSkipped = true
		return pt, nil
	}
	nv, err := search.Naive(nd.D, ps, opts)
	if err != nil {
		return nil, err
	}
	pt.Naive = nv.Stats.Total()
	pt.NaiveExamined = nv.Stats.SizeComputed
	if cfg.NaiveBudget > 0 && pt.Naive > cfg.NaiveBudget {
		*naiveOver = true
	}
	return pt, nil
}

// Table renders the sweep.
func (r *RuntimeResult) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("%s — %s: label generation runtime (%s sweep)", r.Figure, r.Dataset, r.XName),
		Columns: []string{r.XName, "naive", "optimized", "opt eval share", "naive examined", "opt examined"},
	}
	for _, p := range r.Points {
		naive := durMS(p.Naive.Seconds())
		examined := fmt.Sprint(p.NaiveExamined)
		if p.NaiveSkipped {
			naive, examined = "skipped (budget)", "-"
		}
		t.AddRow(p.X, naive, durMS(p.Optimized.Seconds()),
			fmt.Sprintf("%.1f%%", 100*p.OptimizedEvalShare), examined, p.OptimizedExamined)
	}
	return t
}

// Plot draws both runtime lines.
func (r *RuntimeResult) Plot() string {
	p := textplot.Plot{
		Title:  fmt.Sprintf("%s — %s", r.Figure, r.Dataset),
		XLabel: r.XName,
		YLabel: "seconds",
		LogY:   true,
	}
	var xs, nv, opt []float64
	var xsN []float64
	for _, pt := range r.Points {
		xs = append(xs, float64(pt.X))
		opt = append(opt, pt.Optimized.Seconds())
		if !pt.NaiveSkipped {
			xsN = append(xsN, float64(pt.X))
			nv = append(nv, pt.Naive.Seconds())
		}
	}
	p.Add(textplot.Series{Name: "Naive", X: xsN, Y: nv})
	p.Add(textplot.Series{Name: "Optimized", X: xs, Y: opt})
	return p.Render()
}
