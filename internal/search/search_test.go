package search

import (
	"fmt"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

// TestExample37 verifies the Algorithm 1 walkthrough of Example 3.7 on the
// Figure 2 data with bound 5. (The example's prose transposes the sizes of
// {age, race} and {age, marital}; the data yields size({age, marital}) = 3
// and size({age, race}) = 6, consistent with Example 2.10 and with the
// example's conclusion.) The final candidates are {gender, age} and
// {age, marital}; the optimal label uses {age, marital}.
func TestExample37(t *testing.T) {
	d := testutil.Fig2()
	ps := core.DistinctTuples(d)
	res, err := TopDown(d, ps, Options{Bound: 5, FastEval: false, CountOptions: core.CountOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wantAttrs, _ := lattice.FromNames(d.AttrNames(), "age group", "marital status")
	if res.Attrs != wantAttrs {
		t.Errorf("optimal attrs = %v, want %v (age group, marital status)",
			res.Attrs.Format(d.AttrNames()), wantAttrs.Format(d.AttrNames()))
	}
	if res.Size != 3 {
		t.Errorf("optimal size = %d, want 3", res.Size)
	}
	// Exactly the two candidate sets of the example survive.
	if res.Stats.Evaluated != 2 {
		t.Errorf("evaluated %d candidates, want 2 ({gender,age} and {age,marital})", res.Stats.Evaluated)
	}
}

// TestNaiveMatchesTopDownError: on small datasets the heuristic finds a
// label whose error matches the naive optimum (the paper observes "similar
// errors for the label generated by the optimal heuristic and the one
// generated by the naive algorithm", §IV-B).
func TestNaiveMatchesTopDownError(t *testing.T) {
	datasets := map[string]*dataset.Dataset{"fig2": testutil.Fig2()}
	if bn, err := datagen.BlueNile(3000, 7); err == nil {
		if p, err := bn.Prefix(5); err == nil {
			datasets["bluenile5"] = p
		}
	}
	for name, d := range datasets {
		ps := core.DistinctTuples(d)
		for _, bound := range []int{5, 10, 20, 50} {
			naive, err := Naive(d, ps, Options{Bound: bound, CountOptions: core.CountOptions{Workers: 1}})
			if err != nil {
				t.Fatalf("%s naive: %v", name, err)
			}
			top, err := TopDown(d, ps, Options{Bound: bound, CountOptions: core.CountOptions{Workers: 1}})
			if err != nil {
				t.Fatalf("%s topdown: %v", name, err)
			}
			if naive.Size > bound || top.Size > bound {
				t.Errorf("%s bound %d: sizes %d/%d exceed bound", name, bound, naive.Size, top.Size)
			}
			// The heuristic evaluates only maximal candidates, so its error
			// can only match or exceed the naive optimum; on these data it
			// should match (Prop 3.2 in action).
			if top.MaxErr < naive.MaxErr-1e-9 {
				t.Errorf("%s bound %d: heuristic %v beat naive %v (naive not optimal?)",
					name, bound, top.MaxErr, naive.MaxErr)
			}
			if top.MaxErr > naive.MaxErr*1.5+1e-9 {
				t.Errorf("%s bound %d: heuristic err %v far above naive optimum %v",
					name, bound, top.MaxErr, naive.MaxErr)
			}
		}
	}
}

// TestTopDownExaminesFewer: the heuristic computes label sizes for no more
// sets than the naive algorithm (the Fig 9 claim).
func TestTopDownExaminesFewer(t *testing.T) {
	d, err := datagen.COMPAS(2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := d.Prefix(8)
	if err != nil {
		t.Fatal(err)
	}
	ps := core.DistinctTuples(d8)
	for _, bound := range []int{10, 30, 50} {
		naive, err := Naive(d8, ps, Options{Bound: bound})
		if err != nil {
			t.Fatal(err)
		}
		top, err := TopDown(d8, ps, Options{Bound: bound})
		if err != nil {
			t.Fatal(err)
		}
		if top.Stats.SizeComputed > naive.Stats.SizeComputed {
			t.Errorf("bound %d: topdown examined %d > naive %d",
				bound, top.Stats.SizeComputed, naive.Stats.SizeComputed)
		}
		if top.Stats.InBound > naive.Stats.InBound {
			t.Errorf("bound %d: topdown in-bound %d > naive %d",
				bound, top.Stats.InBound, naive.Stats.InBound)
		}
	}
}

// TestCandidatesAreAntichain: every pair of evaluated top-down candidates is
// incomparable (removeParents keeps only maximal sets).
func TestCandidatesAreAntichain(t *testing.T) {
	d := testutil.Fig2()
	ps := core.DistinctTuples(d)
	// Reach into the algorithm indirectly: enumerate candidates by running
	// the same traversal.
	n := d.NumAttrs()
	for _, bound := range []int{3, 5, 8, 100} {
		cands := make(map[lattice.AttrSet]struct{})
		queue := lattice.AttrSet(0).Gen(n)
		for len(queue) > 0 {
			curr := queue[0]
			queue = queue[1:]
			for _, c := range curr.Gen(n) {
				if _, within := must2(core.LabelSize(d, c, bound, core.CountOptions{Workers: 1})); !within {
					continue
				}
				queue = append(queue, c)
				for _, p := range c.Parents() {
					delete(cands, p)
				}
				cands[c] = struct{}{}
			}
		}
		for a := range cands {
			for b := range cands {
				if a != b && a.SubsetOf(b) {
					t.Errorf("bound %d: candidate %v ⊂ candidate %v", bound, a, b)
				}
			}
		}
		// And the search agrees with this enumeration's best result.
		res, err := TopDown(d, ps, Options{Bound: bound, CountOptions: core.CountOptions{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) > 0 {
			if _, ok := cands[res.Attrs]; !ok {
				t.Errorf("bound %d: chosen %v not among candidates", bound, res.Attrs)
			}
		}
	}
}

// TestParallelEvalSameResult: worker count does not change the outcome.
func TestParallelEvalSameResult(t *testing.T) {
	d, err := datagen.BlueNile(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	ps := core.DistinctTuples(d)
	seq, err := TopDown(d, ps, Options{Bound: 30, CountOptions: core.CountOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := TopDown(d, ps, Options{Bound: 30, CountOptions: core.CountOptions{Workers: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if seq.MaxErr != par.MaxErr || seq.Size != par.Size {
		t.Errorf("parallel (%v, %d) != sequential (%v, %d)", par.MaxErr, par.Size, seq.MaxErr, seq.Size)
	}
}

// TestTinyBoundFallsBackToSingletons: a bound below every pair label's size
// still yields a usable label.
func TestTinyBoundFallsBackToSingletons(t *testing.T) {
	d := testutil.Fig2()
	ps := core.DistinctTuples(d)
	res, err := TopDown(d, ps, Options{Bound: 2, CountOptions: core.CountOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attrs.Size() > 1 {
		t.Errorf("fallback chose %v, want a singleton or empty set", res.Attrs)
	}
	if res.Size > 2 {
		t.Errorf("fallback label size %d exceeds bound", res.Size)
	}
}

// TestSingletonFallbackUsesSearchOptions: when no pair fits, both
// algorithms decide the singletons through the level sizer with the
// search's own options — metered like every other examined set, and the
// same for every worker count. The pairs (900 patterns each) go to the
// kernel; each singleton's 30 values prove it in bound with no scan.
func TestSingletonFallbackUsesSearchOptions(t *testing.T) {
	d := uniformDataset(t, 30, 30, 30) // 900-pattern pairs, 30-pattern singletons
	ps := core.DistinctTuples(d)
	for name, run := range map[string]func(d *dataset.Dataset, ps *core.PatternSet, opts Options) (*Result, error){
		"topdown": TopDown,
		"naive":   Naive,
	} {
		var seq *Result
		for _, workers := range []int{1, 4} {
			res, err := run(d, ps, Options{Bound: 40, CountOptions: core.CountOptions{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Attrs.Size() != 1 {
				t.Fatalf("%s workers=%d: chose %v, want a singleton", name, workers, res.Attrs)
			}
			if st := res.Stats; st.SizeComputed != 6 || st.InBound != 3 || st.Proved != 3 || st.RefinedSets != 3 {
				t.Fatalf("%s workers=%d: SizeComputed=%d InBound=%d Proved=%d RefinedSets=%d, want 6, 3, 3 and 3",
					name, workers, st.SizeComputed, st.InBound, st.Proved, st.RefinedSets)
			}
			if seq == nil {
				seq = res
			} else {
				sameResult(t, fmt.Sprintf("%s workers=%d", name, workers), seq, res)
			}
		}
	}
}

func TestInvalidOptions(t *testing.T) {
	d := testutil.Fig2()
	ps := core.DistinctTuples(d)
	if _, err := TopDown(d, ps, Options{Bound: 0}); err == nil {
		t.Error("zero bound accepted")
	}
	if _, err := Naive(d, ps, Options{Bound: -5}); err == nil {
		t.Error("negative bound accepted")
	}
}

func TestEvaluateSets(t *testing.T) {
	d := testutil.Fig2()
	ps := core.DistinctTuples(d)
	s1, _ := lattice.FromNames(d.AttrNames(), "age group", "marital status")
	s2, _ := lattice.FromNames(d.AttrNames(), "gender", "age group")
	res, err := EvaluateSets(d, ps, []lattice.AttrSet{s1, s2}, Options{CountOptions: core.CountOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Size != 3 || res[1].Size != 4 {
		t.Errorf("sizes = (%d, %d), want (3, 4)", res[0].Size, res[1].Size)
	}
	if res[0].Attrs != s1 || res[1].Attrs != s2 {
		t.Error("order not preserved")
	}
}

// TestStatsTimings: both phases record non-negative durations and totals add
// up.
func TestStatsTimings(t *testing.T) {
	d := testutil.Fig2()
	ps := core.DistinctTuples(d)
	res, err := TopDown(d, ps, Options{Bound: 10, CountOptions: core.CountOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SearchTime < 0 || st.EvalTime < 0 {
		t.Error("negative durations")
	}
	if st.Total() != st.SearchTime+st.EvalTime {
		t.Error("Total mismatch")
	}
	if st.PatternsScanned <= 0 {
		t.Error("no patterns scanned")
	}
}
