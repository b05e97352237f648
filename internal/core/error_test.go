package core

import (
	"math"
	"testing"
	"testing/quick"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
	"pcbl/internal/workpool"
)

func TestQError(t *testing.T) {
	cases := []struct {
		c    int
		est  float64
		want float64
	}{
		{10, 10, 1},
		{10, 5, 2},
		{5, 10, 2},
		{10, 0, 10}, // est floored to 1
		{0, 5, 5},   // c floored to 1
		{0, 0, 1},
		{3, 1.5, 2},
		{1, 0.001, 1}, // tiny fractional estimate of a count-1 pattern
		{4, 0.25, 4},  // floored est, not 16
	}
	for _, tc := range cases {
		if got := QError(tc.c, tc.est); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("QError(%d, %v) = %v, want %v", tc.c, tc.est, got, tc.want)
		}
	}
}

// TestQErrorProperties (property): q-error is ≥ 1, and symmetric in
// over/under estimation by the same factor whenever flooring does not kick
// in (the under-estimate must stay ≥ 1).
func TestQErrorProperties(t *testing.T) {
	prop := func(c uint16, factor uint8) bool {
		count := int(c%1000) + 1
		f := 1 + float64(factor%50)/10
		over := QError(count, float64(count)*f)
		under := QError(count, float64(count)/f)
		if over < 1 || under < 1 {
			return false
		}
		if float64(count)/f >= 1 && math.Abs(over-under) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistinctTuplesFig2(t *testing.T) {
	d := testutil.Fig2()
	ps := DistinctTuples(d)
	// Figure 2 has 18 tuples, all distinct.
	if ps.Len() != 18 {
		t.Fatalf("distinct tuples = %d, want 18", ps.Len())
	}
	if ps.TotalCount() != 18 {
		t.Errorf("total count = %d, want 18", ps.TotalCount())
	}
	for i := 0; i < ps.Len(); i++ {
		if ps.Count(i) != 1 {
			t.Errorf("pattern %d count = %d, want 1", i, ps.Count(i))
		}
		p := ps.Pattern(i)
		if got := CountPattern(d, p); got != 1 {
			t.Errorf("scan count of %s = %d, want 1", p.Format(d), got)
		}
	}
}

func TestDistinctTuplesMultiplicity(t *testing.T) {
	d := testutil.BinaryCorrelated(4) // 16 rows, 8 distinct (A1=A2 halves the space)
	ps := DistinctTuples(d)
	if ps.Len() != 8 {
		t.Fatalf("distinct = %d, want 8", ps.Len())
	}
	for i := 0; i < ps.Len(); i++ {
		if ps.Count(i) != 2 {
			t.Errorf("count = %d, want 2", ps.Count(i))
		}
	}
}

// TestEvaluateExactLabel: a label over all attributes estimates every full
// pattern exactly, so all error metrics collapse.
func TestEvaluateExactLabel(t *testing.T) {
	d := testutil.Fig2()
	l := must(BuildLabel(d, lattice.FullSet(d.NumAttrs()), CountOptions{Workers: 1}))
	ps := DistinctTuples(d)
	res := Evaluate(l, ps, EvalOptions{})
	if res.N != 18 {
		t.Fatalf("N = %d, want 18", res.N)
	}
	if res.MaxAbs != 0 || res.MeanAbs != 0 || res.StdAbs != 0 {
		t.Errorf("abs errors = (%v, %v, %v), want zeros", res.MaxAbs, res.MeanAbs, res.StdAbs)
	}
	if res.MaxQ != 1 || res.MeanQ != 1 {
		t.Errorf("q errors = (%v, %v), want 1", res.MaxQ, res.MeanQ)
	}
}

// TestEvaluateParallelMatchesSequential (property): worker count never
// changes the aggregate.
func TestEvaluateParallelMatchesSequential(t *testing.T) {
	d := testutil.Fig2()
	ps := DistinctTuples(d)
	lattice.AllSubsets(d.NumAttrs(), func(s lattice.AttrSet) bool {
		l := must(BuildLabel(d, s, CountOptions{Workers: 1}))
		seq := Evaluate(l, ps, EvalOptions{Workers: 1})
		par := Evaluate(l, ps, EvalOptions{Workers: 8})
		if math.Abs(seq.MaxAbs-par.MaxAbs) > 1e-9 ||
			math.Abs(seq.MeanAbs-par.MeanAbs) > 1e-9 ||
			math.Abs(seq.MeanQ-par.MeanQ) > 1e-9 ||
			math.Abs(seq.MaxQ-par.MaxQ) > 1e-9 {
			t.Errorf("parallel/sequential mismatch for %v: %+v vs %+v", s, seq, par)
		}
		return true
	})
}

// TestMaxAbsErrorModesAgree: the sorted early-termination scan returns the
// same maximum as the exact scan on the Figure 2 workload for every label.
func TestMaxAbsErrorModesAgree(t *testing.T) {
	d := testutil.Fig2()
	ps := DistinctTuples(d)
	ps.SortByCountDesc()
	lattice.AllSubsets(d.NumAttrs(), func(s lattice.AttrSet) bool {
		l := must(BuildLabel(d, s, CountOptions{Workers: 1}))
		exact, _ := MaxAbsError(l, ps, MaxErrOptions{Workers: 1})
		sorted, scanned := MaxAbsError(l, ps, MaxErrOptions{Sorted: true})
		if exact != sorted {
			t.Errorf("label %v: exact %v != sorted %v", s, exact, sorted)
		}
		if scanned > ps.Len() {
			t.Errorf("scanned %d > %d", scanned, ps.Len())
		}
		return true
	})
}

// TestSortedEvalIsNotExact pins a dataset on which the sorted early
// termination misses the worst error. On S = {a0, a1} the label
// under-estimates the count-2 tuple (v1, v1, v0) by 10/9, and every later
// tuple has count 1 < 10/9, so the scan stops there; but it over-estimates
// the count-1 tuple (v1, v1, v1) by 11/9. The sorted scan only ever stops
// early, so it never reports more than the exhaustive one.
func TestSortedEvalIsNotExact(t *testing.T) {
	bld := dataset.NewBuilder("fasteval", "a0", "a1", "a2")
	for _, r := range [][3]string{
		{"v0", "v0", "v1"}, {"v0", "v0", "v2"}, {"v0", "v2", "v1"},
		{"v0", "v0", "v1"}, {"v1", "v1", "v0"}, {"v1", "v1", "v0"},
		{"v0", "v0", "v1"}, {"v1", "v1", "v1"}, {"v1", "v1", "v2"},
	} {
		bld.AppendStrings(r[0], r[1], r[2])
	}
	d := must(bld.Build())
	ps := DistinctTuples(d)
	ps.SortByCountDesc()
	lattice.AllSubsets(d.NumAttrs(), func(s lattice.AttrSet) bool {
		l := must(BuildLabel(d, s, CountOptions{Workers: 1}))
		exact, _ := MaxAbsError(l, ps, MaxErrOptions{Workers: 1})
		sorted, _ := MaxAbsError(l, ps, MaxErrOptions{Sorted: true})
		if sorted > exact {
			t.Errorf("label %v: sorted %v exceeds exact %v", s, sorted, exact)
		}
		return true
	})
	l := must(BuildLabel(d, lattice.NewAttrSet(0).Add(1), CountOptions{Workers: 1}))
	exact, _ := MaxAbsError(l, ps, MaxErrOptions{Workers: 1})
	sorted, _ := MaxAbsError(l, ps, MaxErrOptions{Sorted: true})
	if math.Abs(exact-11.0/9) > 1e-12 || math.Abs(sorted-10.0/9) > 1e-12 {
		t.Fatalf("S={a0,a1}: exact %v, sorted %v; want 11/9 and 10/9", exact, sorted)
	}
}

// TestMaxAbsErrorStopAbove: the cutoff returns early with a value above the
// threshold whenever the true maximum exceeds it.
func TestMaxAbsErrorStopAbove(t *testing.T) {
	d := testutil.Fig2()
	ps := DistinctTuples(d)
	l := must(BuildLabel(d, lattice.AttrSet(0), CountOptions{Workers: 1})) // independence label: nonzero errors
	full, _ := MaxAbsError(l, ps, MaxErrOptions{Workers: 1})
	if full <= 0 {
		t.Skip("independence label happens to be exact")
	}
	cut, _ := MaxAbsError(l, ps, MaxErrOptions{Workers: 1, StopAbove: full / 2})
	if cut <= full/2 {
		t.Errorf("cutoff scan returned %v, want > %v", cut, full/2)
	}
}

// TestMaxAbsErrorStopAboveCountsExamined: with workers, a cutoff stops
// each chunk at its first error past the threshold, and scanned is the
// number of patterns the chunks examined, not the whole set.
func TestMaxAbsErrorStopAboveCountsExamined(t *testing.T) {
	d := testutil.Fig2()
	ps := DistinctTuples(d)
	l := must(BuildLabel(d, lattice.AttrSet(0), CountOptions{Workers: 1})) // independence label: nonzero errors
	const stop, workers = 1e-9, 8
	want := 0
	for _, c := range workpool.Chunks(ps.Len(), workers) {
		i := c.Lo
		for ; i < c.Hi; i++ {
			if AbsError(ps.Count(i), l.EstimateRow(ps.Row(i), ps.Attrs(i))) > stop {
				i++
				break
			}
		}
		want += i - c.Lo
	}
	if want == ps.Len() {
		t.Fatal("no chunk stops early: the data cannot tell a cut scan from a full one")
	}
	got, scanned := MaxAbsError(l, ps, MaxErrOptions{Workers: workers, StopAbove: stop})
	if got <= stop || scanned != want {
		t.Fatalf("cut scan = (%v, %d scanned), want above %v after %d of %d", got, scanned, stop, want, ps.Len())
	}
}

// TestSortByCountDescStable: sorting preserves the multiset of patterns and
// orders counts non-increasingly.
func TestSortByCountDescStable(t *testing.T) {
	d := testutil.BinaryCorrelated(4)
	ps := DistinctTuples(d)
	before := ps.TotalCount()
	ps.SortByCountDesc()
	if !ps.Sorted() {
		t.Fatal("not marked sorted")
	}
	if ps.TotalCount() != before {
		t.Errorf("total changed: %d -> %d", before, ps.TotalCount())
	}
	for i := 1; i < ps.Len(); i++ {
		if ps.Count(i) > ps.Count(i-1) {
			t.Fatalf("counts not non-increasing at %d", i)
		}
	}
}

func TestMaxAbsFraction(t *testing.T) {
	r := EvalResult{MaxAbs: 5}
	if got := r.MaxAbsFraction(100); got != 0.05 {
		t.Errorf("fraction = %v, want 0.05", got)
	}
	if got := r.MaxAbsFraction(0); got != 0 {
		t.Errorf("fraction with zero total = %v, want 0", got)
	}
}
