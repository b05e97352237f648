package core

import (
	"testing"

	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

func TestPatternsOver(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "age group", "marital status")
	ps := must(PatternsOver(d, s, CountOptions{Workers: 1}))
	// Example 2.10: exactly 3 positive-count patterns over this set.
	if ps.Len() != 3 {
		t.Fatalf("patterns = %d, want 3", ps.Len())
	}
	for i := 0; i < ps.Len(); i++ {
		if ps.Count(i) != 6 {
			t.Errorf("pattern %d count = %d, want 6", i, ps.Count(i))
		}
		if ps.Attrs(i) != s {
			t.Errorf("pattern %d attrs = %v", i, ps.Attrs(i))
		}
		// Counts agree with a scan.
		if got := CountPattern(d, ps.Pattern(i)); got != ps.Count(i) {
			t.Errorf("pattern %d scan = %d, stored %d", i, got, ps.Count(i))
		}
	}
	if ps.TotalCount() != 18 {
		t.Errorf("total = %d, want 18", ps.TotalCount())
	}
}

// TestLabelOptimizedForRestrictedWorkload: optimizing against P_S (the
// "sensitive attributes" use case of Definition 2.15) yields zero error on
// that workload once S fits the bound.
func TestLabelOptimizedForRestrictedWorkload(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "gender", "race")
	ps := must(PatternsOver(d, s, CountOptions{Workers: 1}))
	l := must(BuildLabel(d, s, CountOptions{Workers: 1}))
	res := Evaluate(l, ps, EvalOptions{})
	if res.MaxAbs != 0 {
		t.Errorf("label over the workload's own attrs has max err %v", res.MaxAbs)
	}
}
