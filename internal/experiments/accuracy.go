package experiments

import (
	"fmt"

	"pcbl/internal/core"
	"pcbl/internal/pgstats"
	"pcbl/internal/sampling"
	"pcbl/internal/search"
	"pcbl/internal/textplot"
)

// AccuracyPoint is one bound's measurements in the Fig 4/5 sweeps.
type AccuracyPoint struct {
	// Bound is B_s.
	Bound int
	// LabelSize is the size of the label the heuristic generated (the
	// paper plots error against this, not against the bound).
	LabelSize int
	// LabelAttrs names the chosen attribute set.
	LabelAttrs string
	// PCBL is the generated label's full evaluation.
	PCBL core.EvalResult
	// Sample is the sampling baseline's evaluation, averaged over the
	// configured number of trials with sample size Bound + |VC|.
	Sample core.EvalResult
	// SampleSize is the baseline's sample size.
	SampleSize int
}

// AccuracyResult holds a full Fig 4/Fig 5 sweep for one dataset.
type AccuracyResult struct {
	Dataset   string
	TotalRows int
	// Postgres is the PostgreSQL-statistics baseline (bound-independent:
	// the flat gray line of Fig 4/5).
	Postgres core.EvalResult
	// PostgresMCVs is the baseline's space consumption in stored
	// (value, frequency) pairs.
	PostgresMCVs int
	Points       []AccuracyPoint
}

// RunAccuracy regenerates the Fig 4 and Fig 5 measurements for one dataset:
// for every bound in the grid it generates a label with the optimized
// heuristic, evaluates it on P = P_A, and evaluates the sampling baseline at
// matching space; the PostgreSQL baseline is evaluated once.
func RunAccuracy(nd NamedDataset, cfg Config) (*AccuracyResult, error) {
	cfg = cfg.WithDefaults()
	d := nd.D
	ps := core.DistinctTuples(d)
	res := &AccuracyResult{Dataset: nd.Name, TotalRows: d.NumRows()}

	pg, err := pgstats.Analyze(d, pgstats.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	res.Postgres = core.Evaluate(pg, ps, core.EvalOptions{Workers: cfg.Workers})
	res.PostgresMCVs = pg.MCVEntries()

	for _, bound := range nd.Bounds {
		sr, err := search.TopDown(d, ps, search.Options{
			Bound:        bound,
			FastEval:     true,
			CountOptions: core.CountOptions{Workers: cfg.Workers},
		})
		if err != nil {
			return nil, err
		}
		pt := AccuracyPoint{
			Bound:      bound,
			LabelSize:  sr.Size,
			LabelAttrs: sr.Attrs.Format(d.AttrNames()),
			PCBL:       core.Evaluate(sr.Label, ps, core.EvalOptions{Workers: cfg.Workers}),
		}
		pt.SampleSize = sampling.SampleSizeFor(d, bound)
		mean, _, err := sampling.AverageEval(d, ps, pt.SampleSize, cfg.SamplingTrials, cfg.Seed+uint64(bound))
		if err != nil {
			return nil, err
		}
		pt.Sample = mean
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Fig4Table renders the absolute-max-error sweep: max error as a fraction
// of the data size, with mean error in parentheses, exactly as Fig 4
// annotates its lines.
func (r *AccuracyResult) Fig4Table() Table {
	t := Table{
		Title: fmt.Sprintf("Fig 4 — %s: absolute max error vs label size (mean in parentheses)", r.Dataset),
		Columns: []string{
			"bound", "label size", "PCBL max", "PCBL max %", "PCBL (mean)",
			"Sample max", "Sample max %", "Sample (mean)",
		},
		Notes: []string{
			fmt.Sprintf("Postgres baseline (bound-independent): max %.0f (%s), mean (%.1f), %d MCV entries",
				r.Postgres.MaxAbs, pctOf(r.Postgres.MaxAbs, r.TotalRows), r.Postgres.MeanAbs, r.PostgresMCVs),
			fmt.Sprintf("total rows: %d; P = P_A (every distinct full tuple)", r.TotalRows),
		},
	}
	for _, p := range r.Points {
		t.AddRow(
			p.Bound, p.LabelSize,
			fmt.Sprintf("%.0f", p.PCBL.MaxAbs), pctOf(p.PCBL.MaxAbs, r.TotalRows),
			fmt.Sprintf("(%.1f)", p.PCBL.MeanAbs),
			fmt.Sprintf("%.0f", p.Sample.MaxAbs), pctOf(p.Sample.MaxAbs, r.TotalRows),
			fmt.Sprintf("(%.1f)", p.Sample.MeanAbs),
		)
	}
	return t
}

// Fig5Table renders the mean q-error sweep (with max q-error alongside, as
// §IV-B reports both).
func (r *AccuracyResult) Fig5Table() Table {
	t := Table{
		Title: fmt.Sprintf("Fig 5 — %s: q-error vs label size", r.Dataset),
		Columns: []string{
			"bound", "label size", "PCBL mean q", "PCBL max q",
			"Sample mean q", "Sample max q",
		},
		Notes: []string{
			fmt.Sprintf("Postgres baseline: mean q %.1f, max q %.0f", r.Postgres.MeanQ, r.Postgres.MaxQ),
		},
	}
	for _, p := range r.Points {
		t.AddRow(
			p.Bound, p.LabelSize,
			fmt.Sprintf("%.2f", p.PCBL.MeanQ), fmt.Sprintf("%.0f", p.PCBL.MaxQ),
			fmt.Sprintf("%.2f", p.Sample.MeanQ), fmt.Sprintf("%.0f", p.Sample.MaxQ),
		)
	}
	return t
}

// Fig4Plot draws max error (% of data size) against label size.
func (r *AccuracyResult) Fig4Plot() string {
	p := textplot.Plot{
		Title:  fmt.Sprintf("Fig 4 — %s", r.Dataset),
		XLabel: "label size",
		YLabel: "max error (fraction of |D|)",
	}
	var xs, pcbl, smpl, pgLine []float64
	for _, pt := range r.Points {
		xs = append(xs, float64(pt.LabelSize))
		pcbl = append(pcbl, pt.PCBL.MaxAbsFraction(r.TotalRows))
		smpl = append(smpl, pt.Sample.MaxAbsFraction(r.TotalRows))
		pgLine = append(pgLine, r.Postgres.MaxAbsFraction(r.TotalRows))
	}
	p.Add(textplot.Series{Name: "PCBL", X: xs, Y: pcbl})
	p.Add(textplot.Series{Name: "Postgres", X: xs, Y: pgLine})
	p.Add(textplot.Series{Name: "Sample", X: xs, Y: smpl})
	return p.Render()
}

// Fig5Plot draws mean q-error against label size (log y, as in the paper).
func (r *AccuracyResult) Fig5Plot() string {
	p := textplot.Plot{
		Title:  fmt.Sprintf("Fig 5 — %s", r.Dataset),
		XLabel: "label size",
		YLabel: "mean q-error",
		LogY:   true,
	}
	var xs, pcbl, smpl, pgLine []float64
	for _, pt := range r.Points {
		xs = append(xs, float64(pt.LabelSize))
		pcbl = append(pcbl, pt.PCBL.MeanQ)
		smpl = append(smpl, pt.Sample.MeanQ)
		pgLine = append(pgLine, r.Postgres.MeanQ)
	}
	p.Add(textplot.Series{Name: "PCBL", X: xs, Y: pcbl})
	p.Add(textplot.Series{Name: "Postgres", X: xs, Y: pgLine})
	p.Add(textplot.Series{Name: "Sample", X: xs, Y: smpl})
	return p.Render()
}
