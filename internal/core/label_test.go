package core

import (
	"math"
	"testing"

	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

// TestExample210 verifies the PC and VC sections of Example 2.10: the label
// over S = {age group, marital status} has exactly three pattern counts, and
// the VC section matches the listed value counts.
func TestExample210(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "age group", "marital status")
	l := must(BuildLabel(d, s, CountOptions{Workers: 1}))
	if got := l.Size(); got != 3 {
		t.Fatalf("|PC| = %d, want 3", got)
	}
	wantPC := map[string]int{
		"under 20|single": 6,
		"20-39|married":   6,
		"20-39|divorced":  6,
	}
	ageIdx, _ := d.AttrIndex("age group")
	marIdx, _ := d.AttrIndex("marital status")
	noErr(l.PC().EachCtx(nil, d.NumAttrs(), func(vals []uint16, c int) bool {
		key := d.Attr(ageIdx).Value(vals[ageIdx]) + "|" + d.Attr(marIdx).Value(vals[marIdx])
		if wantPC[key] != c {
			t.Errorf("PC[%s] = %d, want %d", key, c, wantPC[key])
		}
		delete(wantPC, key)
		return true
	}))
	if len(wantPC) != 0 {
		t.Errorf("missing PC entries: %v", wantPC)
	}

	wantVC := map[string]map[string]int{
		"gender":         {"Female": 9, "Male": 9},
		"age group":      {"under 20": 6, "20-39": 12},
		"race":           {"African-American": 6, "Hispanic": 6, "Caucasian": 6},
		"marital status": {"single": 6, "divorced": 6, "married": 6},
	}
	for a := 0; a < d.NumAttrs(); a++ {
		attr := d.Attr(a)
		for _, v := range attr.Domain() {
			id, _ := attr.ID(v)
			if got, want := l.ValueCount(a, id), wantVC[attr.Name()][v]; got != want {
				t.Errorf("VC[%s=%s] = %d, want %d", attr.Name(), v, got, want)
			}
		}
	}

	// The alternative label of Example 2.10: S' = {gender, age group} has
	// four pattern counts (3, 3, 6, 6).
	s2, _ := lattice.FromNames(d.AttrNames(), "gender", "age group")
	l2 := must(BuildLabel(d, s2, CountOptions{Workers: 1}))
	if got := l2.Size(); got != 4 {
		t.Errorf("|PC| over {gender, age group} = %d, want 4", got)
	}
}

// TestExample212 verifies both estimates of Example 2.12: for p = {gender =
// female, age group = 20-39, marital status = married}, the label over
// {age group, marital status} estimates 6·9/18 = 3, and the label over
// {gender, age group} estimates 6·6/18 = 2.
func TestExample212(t *testing.T) {
	d := testutil.Fig2()
	p, err := NewPattern(d, map[string]string{
		"gender": "Female", "age group": "20-39", "marital status": "married",
	})
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := lattice.FromNames(d.AttrNames(), "age group", "marital status")
	if got := must(BuildLabel(d, s1, CountOptions{Workers: 1})).Estimate(p); got != 3 {
		t.Errorf("Est(p, L_{age,marital}) = %v, want 3", got)
	}
	s2, _ := lattice.FromNames(d.AttrNames(), "gender", "age group")
	if got := must(BuildLabel(d, s2, CountOptions{Workers: 1})).Estimate(p); got != 2 {
		t.Errorf("Est(p, L_{gender,age}) = %v, want 2", got)
	}
}

// TestExample214 verifies the errors of Example 2.14: c_D(p) = 3, so the
// first label errs by 0 and the second by 1.
func TestExample214(t *testing.T) {
	d := testutil.Fig2()
	p, _ := NewPattern(d, map[string]string{
		"gender": "Female", "age group": "20-39", "marital status": "married",
	})
	if got := CountPattern(d, p); got != 3 {
		t.Fatalf("c_D(p) = %d, want 3", got)
	}
	s1, _ := lattice.FromNames(d.AttrNames(), "age group", "marital status")
	if got := AbsError(3, must(BuildLabel(d, s1, CountOptions{Workers: 1})).Estimate(p)); got != 0 {
		t.Errorf("Err(l, p) = %v, want 0", got)
	}
	s2, _ := lattice.FromNames(d.AttrNames(), "gender", "age group")
	if got := AbsError(3, must(BuildLabel(d, s2, CountOptions{Workers: 1})).Estimate(p)); got != 1 {
		t.Errorf("Err(l', p) = %v, want 1", got)
	}
}

// TestExample26 verifies the independence estimate of Example 2.6: on the
// n-attribute binary database where every combination appears once, the
// pattern {A1=0, A2=0, A3=0} is estimated as 2^(n-3) from value counts
// alone (empty label attribute set ⇒ pure independence).
func TestExample26(t *testing.T) {
	const n = 6
	d := testutil.BinaryIndependent(n)
	p, _ := NewPattern(d, map[string]string{"A1": "0", "A2": "0", "A3": "0"})
	l := must(BuildLabel(d, lattice.AttrSet(0), CountOptions{Workers: 1}))
	want := math.Pow(2, n-3)
	if got := l.Estimate(p); got != want {
		t.Errorf("independence estimate = %v, want %v", got, want)
	}
	// The true count equals the estimate here: no correlations.
	if got := CountPattern(d, p); float64(got) != want {
		t.Errorf("true count = %d, want %v", got, want)
	}
}

// TestExample27And28 verifies the correlated database of Examples 2.7/2.8:
// with A1 = A2 everywhere, the independence estimate of {A1=0,A2=0,A3=0} is
// 2^(n-3) but the true count is 2^(n-2); a label over {A1, A2} repairs the
// estimate exactly.
func TestExample27And28(t *testing.T) {
	const n = 6
	d := testutil.BinaryCorrelated(n)
	p, _ := NewPattern(d, map[string]string{"A1": "0", "A2": "0", "A3": "0"})
	trueCount := CountPattern(d, p)
	if want := 1 << (n - 2); trueCount != want {
		t.Fatalf("true count = %d, want %d", trueCount, want)
	}
	indep := must(BuildLabel(d, lattice.AttrSet(0), CountOptions{Workers: 1}))
	if got, want := indep.Estimate(p), math.Pow(2, n-3); got != want {
		t.Errorf("independence estimate = %v, want %v", got, want)
	}
	s, _ := lattice.FromNames(d.AttrNames(), "A1", "A2")
	fixed := must(BuildLabel(d, s, CountOptions{Workers: 1}))
	if got := fixed.Estimate(p); got != float64(trueCount) {
		t.Errorf("Est with {A1,A2} label = %v, want %d", got, trueCount)
	}
}

// TestExactWhenCovered: for every pattern p with Attr(p) ⊆ S the estimate is
// exact (§III-A: "Clearly, for every pattern p if Attr(p) ⊆ S then the
// estimate of p using l is an exact estimation").
func TestExactWhenCovered(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "gender", "race")
	l := must(BuildLabel(d, s, CountOptions{Workers: 1}))
	gIdx, _ := d.AttrIndex("gender")
	rIdx, _ := d.AttrIndex("race")
	for _, g := range d.Attr(gIdx).Domain() {
		for _, r := range d.Attr(rIdx).Domain() {
			full, _ := NewPattern(d, map[string]string{"gender": g, "race": r})
			if got, want := l.Estimate(full), float64(CountPattern(d, full)); got != want {
				t.Errorf("Est({%s,%s}) = %v, want %v", g, r, got, want)
			}
			// Sub-patterns of S are exact too (marginal lookup path).
			sub, _ := NewPattern(d, map[string]string{"race": r})
			if got, want := l.Estimate(sub), float64(CountPattern(d, sub)); got != want {
				t.Errorf("Est({%s}) = %v, want %v", r, got, want)
			}
		}
	}
}

// TestEstimateZeroOnAbsentBase: a pattern whose restriction to S has count 0
// is estimated as 0.
func TestEstimateZeroOnAbsentBase(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "age group", "marital status")
	l := must(BuildLabel(d, s, CountOptions{Workers: 1}))
	// under 20 + married never co-occur in Figure 2.
	p, _ := NewPattern(d, map[string]string{
		"gender": "Male", "age group": "under 20", "marital status": "married",
	})
	if got := l.Estimate(p); got != 0 {
		t.Errorf("estimate = %v, want 0", got)
	}
}

// TestLabelSizeMonotone: label size never decreases when adding attributes —
// the property that makes Algorithm 1's pruning sound.
func TestLabelSizeMonotone(t *testing.T) {
	d := testutil.Fig2()
	n := d.NumAttrs()
	lattice.AllSubsets(n, func(s lattice.AttrSet) bool {
		sz, _ := labelSize(d, s, -1)
		for _, c := range s.Children(n) {
			csz, _ := labelSize(d, c, -1)
			if csz < sz {
				t.Errorf("size(%v)=%d > size(%v)=%d", s, sz, c, csz)
			}
		}
		return true
	})
}

// TestLabelSizeCap: the early-abort path reports (cap+1, false) precisely
// when the true size exceeds cap.
func TestLabelSizeCap(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "race", "marital status") // size 9
	full, ok := labelSize(d, s, -1)
	if !ok || full != 9 {
		t.Fatalf("LabelSize uncapped = (%d, %v), want (9, true)", full, ok)
	}
	if got, ok := labelSize(d, s, 5); ok || got != 6 {
		t.Errorf("LabelSize cap 5 = (%d, %v), want (6, false)", got, ok)
	}
	if got, ok := labelSize(d, s, 9); !ok || got != 9 {
		t.Errorf("LabelSize cap 9 = (%d, %v), want (9, true)", got, ok)
	}
}

// TestLabelSizeAgainstPaperTrace checks every pair size used by the
// Example 3.7 walkthrough. (The prose of Example 3.7 transposes {a,r} and
// {a,m}; the sizes below are the ones the Figure 2 data actually yields,
// consistent with Example 2.10 and the example's final conclusion.)
func TestLabelSizeAgainstPaperTrace(t *testing.T) {
	d := testutil.Fig2()
	want := map[string]int{
		"gender,age group":         4,
		"gender,race":              6,
		"gender,marital status":    6,
		"age group,race":           6,
		"age group,marital status": 3,
		"race,marital status":      9,
	}
	for names, wantSize := range want {
		var members []string
		for _, n := range splitComma(names) {
			members = append(members, n)
		}
		s, err := lattice.FromNames(d.AttrNames(), members...)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := labelSize(d, s, -1); got != wantSize {
			t.Errorf("size(%s) = %d, want %d", names, got, wantSize)
		}
	}
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
