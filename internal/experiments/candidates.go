package experiments

import (
	"fmt"

	"pcbl/internal/core"
	"pcbl/internal/lattice"
	"pcbl/internal/search"
	"pcbl/internal/textplot"
)

// CandidatesPoint is one bound of the Fig 9 measurement.
type CandidatesPoint struct {
	Bound int
	// Naive is the number of attribute sets the naive algorithm examined
	// (all subsets of every visited level).
	Naive int
	// Optimized is the number of sets Algorithm 1 generated through gen
	// (each gets a label-size computation).
	Optimized int
	// OptimizedInBound of those fit the bound (entered queue/candidates).
	OptimizedInBound int
	// TotalSubsets is the number of non-empty, non-singleton subsets — the
	// denominator of the paper's "% of all possible subsets" remarks.
	TotalSubsets uint64
}

// CandidatesResult is a Fig 9 sweep.
type CandidatesResult struct {
	Dataset string
	Points  []CandidatesPoint
}

// RunCandidates regenerates Fig 9: the number of candidate attribute sets
// examined during label generation, naive vs optimized, at the paper's
// bound grid {10, 30, 50, 70, 100}.
func RunCandidates(nd NamedDataset, cfg Config, bounds []int) (*CandidatesResult, error) {
	cfg = cfg.WithDefaults()
	if len(bounds) == 0 {
		bounds = []int{10, 30, 50, 70, 100}
	}
	ps := core.DistinctTuples(nd.D)
	n := nd.D.NumAttrs()
	var total uint64
	for k := 2; k <= n; k++ {
		total += lattice.CountCombinations(n, k)
	}
	res := &CandidatesResult{Dataset: nd.Name}
	naiveOver := false
	for _, bound := range bounds {
		opts := search.Options{Bound: bound, FastEval: true, CountOptions: core.CountOptions{Workers: cfg.Workers}}
		pt := CandidatesPoint{Bound: bound, Naive: -1, TotalSubsets: total}
		if !naiveOver {
			nv, err := search.Naive(nd.D, ps, opts)
			if err != nil {
				return nil, err
			}
			pt.Naive = nv.Stats.SizeComputed
			if cfg.NaiveBudget > 0 && nv.Stats.Total() > cfg.NaiveBudget {
				naiveOver = true
			}
		}
		top, err := search.TopDown(nd.D, ps, opts)
		if err != nil {
			return nil, err
		}
		pt.Optimized = top.Stats.SizeComputed
		pt.OptimizedInBound = top.Stats.InBound
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Table renders the sweep with the paper's "gain" percentage.
func (r *CandidatesResult) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("Fig 9 — %s: candidate attribute sets examined", r.Dataset),
		Columns: []string{"bound", "naive", "optimized", "opt in-bound", "gain", "naive %all", "opt %all"},
	}
	for _, p := range r.Points {
		gain, naive, naivePct := "-", "skipped (budget)", "-"
		if p.Naive >= 0 {
			naive = fmt.Sprint(p.Naive)
			naivePct = pctOfU(p.Naive, p.TotalSubsets)
			if p.Naive > 0 {
				gain = fmt.Sprintf("%.0f%%", 100*(1-float64(p.Optimized)/float64(p.Naive)))
			}
		}
		t.AddRow(p.Bound, naive, p.Optimized, p.OptimizedInBound, gain,
			naivePct, pctOfU(p.Optimized, p.TotalSubsets))
	}
	return t
}

// Plot draws the two counter series (log y, like the paper's COMPAS and
// Credit Card panels).
func (r *CandidatesResult) Plot() string {
	p := textplot.Plot{
		Title:  fmt.Sprintf("Fig 9 — %s", r.Dataset),
		XLabel: "bound",
		YLabel: "# candidate sets examined",
		LogY:   true,
	}
	var xs, opt, xsN, nv []float64
	for _, pt := range r.Points {
		xs = append(xs, float64(pt.Bound))
		opt = append(opt, float64(pt.Optimized))
		if pt.Naive >= 0 {
			xsN = append(xsN, float64(pt.Bound))
			nv = append(nv, float64(pt.Naive))
		}
	}
	p.Add(textplot.Series{Name: "Naive", X: xsN, Y: nv})
	p.Add(textplot.Series{Name: "Optimized", X: xs, Y: opt})
	return p.Render()
}

func pctOfU(v int, total uint64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(v)/float64(total))
}
