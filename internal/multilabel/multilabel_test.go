package multilabel

import (
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, BestOverlap); err == nil {
		t.Error("empty label list accepted")
	}
	d1 := testutil.Fig2()
	d2 := testutil.Fig2()
	l1 := must(core.BuildLabel(d1, lattice.NewAttrSet(0, 1), core.CountOptions{Workers: 1}))
	l2 := must(core.BuildLabel(d2, lattice.NewAttrSet(2, 3), core.CountOptions{Workers: 1}))
	if _, err := New([]*core.Label{l1, l2}, BestOverlap); err == nil {
		t.Error("labels over different datasets accepted")
	}
}

func TestBestOverlapPicksCoveringLabel(t *testing.T) {
	d := testutil.Fig2()
	lGA := must(core.BuildLabel(d, lattice.NewAttrSet(0, 1), core.CountOptions{Workers: 1})) // gender, age
	lRM := must(core.BuildLabel(d, lattice.NewAttrSet(2, 3), core.CountOptions{Workers: 1})) // race, marital
	m, err := New([]*core.Label{lGA, lRM}, BestOverlap)
	if err != nil {
		t.Fatal(err)
	}
	// A pattern fully inside {race, marital} must be estimated exactly.
	p, _ := core.NewPattern(d, map[string]string{"race": "Hispanic", "marital status": "divorced"})
	want := float64(core.CountPattern(d, p))
	if got := m.Estimate(p); got != want {
		t.Errorf("estimate = %v, want exact %v", got, want)
	}
	// Likewise for {gender, age group}.
	p2, _ := core.NewPattern(d, map[string]string{"gender": "Female", "age group": "20-39"})
	if got, want := m.Estimate(p2), float64(core.CountPattern(d, p2)); got != want {
		t.Errorf("estimate = %v, want exact %v", got, want)
	}
}

// TestMultiBeatsBestSingle: with complementary labels, the multi-label
// estimator's max error over P_A is no worse than either single label's.
func TestMultiBeatsBestSingle(t *testing.T) {
	d, err := datagen.COMPAS(3000, 21)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := d.ProjectNames("DecileScore", "ScoreText", "RecSupervisionLevel", "Gender", "Race", "Age")
	if err != nil {
		t.Fatal(err)
	}
	ps := core.DistinctTuples(proj)
	lA := must(core.BuildLabel(proj, lattice.NewAttrSet(0, 1, 2), core.CountOptions{Workers: 1})) // score cluster
	lB := must(core.BuildLabel(proj, lattice.NewAttrSet(3, 4, 5), core.CountOptions{Workers: 1})) // demographics
	m, err := New([]*core.Label{lA, lB}, BestOverlap)
	if err != nil {
		t.Fatal(err)
	}
	evalA := core.Evaluate(lA, ps, core.EvalOptions{})
	evalB := core.Evaluate(lB, ps, core.EvalOptions{})
	evalM := core.Evaluate(m, ps, core.EvalOptions{})
	best := min(evalA.MeanAbs, evalB.MeanAbs)
	if evalM.MeanAbs > best*1.25+1e-9 {
		t.Errorf("multi mean err %v far above best single %v", evalM.MeanAbs, best)
	}
}

func TestMedianStrategy(t *testing.T) {
	d := testutil.Fig2()
	labels := []*core.Label{
		must(core.BuildLabel(d, lattice.NewAttrSet(0, 1), core.CountOptions{Workers: 1})),
		must(core.BuildLabel(d, lattice.NewAttrSet(1, 3), core.CountOptions{Workers: 1})),
		must(core.BuildLabel(d, lattice.NewAttrSet(2, 3), core.CountOptions{Workers: 1})),
	}
	m, err := New(labels, Median)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := core.NewPattern(d, map[string]string{
		"gender": "Female", "age group": "20-39", "marital status": "married",
	})
	// The three individual estimates for this pattern are 2, 3 and 3
	// (Example 2.12 gives the first two; {race, marital} yields
	// marginal({marital=married}) = 6 times 9/18 · 12/18 = 2).
	got := m.Estimate(p)
	var ests []float64
	for _, l := range labels {
		ests = append(ests, l.Estimate(p))
	}
	// Median of three values.
	lo, mid, hi := ests[0], ests[1], ests[2]
	if lo > mid {
		lo, mid = mid, lo
	}
	if mid > hi {
		mid, hi = hi, mid
	}
	if lo > mid {
		mid = lo
	}
	if got != mid {
		t.Errorf("median estimate = %v, want %v (of %v)", got, mid, ests)
	}
	// Even count: median is the midpoint.
	m2, _ := New(labels[:2], Median)
	want := (ests[0] + ests[1]) / 2
	if got := m2.Estimate(p); got != want {
		t.Errorf("two-label median = %v, want %v", got, want)
	}
}

func TestTotalSize(t *testing.T) {
	d := testutil.Fig2()
	l1 := must(core.BuildLabel(d, lattice.NewAttrSet(1, 3), core.CountOptions{Workers: 1})) // size 3
	l2 := must(core.BuildLabel(d, lattice.NewAttrSet(0, 1), core.CountOptions{Workers: 1})) // size 4
	m, _ := New([]*core.Label{l1, l2}, BestOverlap)
	if got := m.TotalSize(); got != 7 {
		t.Errorf("total size = %d, want 7", got)
	}
	if len(m.Labels()) != 2 {
		t.Error("labels accessor wrong")
	}
	if m.Strategy() != BestOverlap {
		t.Error("strategy accessor wrong")
	}
}

func TestStrategyString(t *testing.T) {
	if BestOverlap.String() != "best-overlap" || Median.String() != "median" {
		t.Error("strategy names")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should render")
	}
}
