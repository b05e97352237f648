package core

import (
	"strings"
	"testing"

	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

func TestRenderFig1Layout(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "gender", "race")
	l := must(BuildLabel(d, s, CountOptions{Workers: 1}))
	ps := DistinctTuples(d)
	eval := Evaluate(l, ps, EvalOptions{})
	out := must(Render(l, RenderOptions{Eval: &eval}))

	for _, want := range []string{
		"Total size: 18",
		"Attribute", "Value", "Count",
		"gender", "Female", "Male",
		"Pattern counts over {gender, race} (6 patterns)",
		"Average Error",
		"Maximal Error",
		"Standard deviation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q\n%s", want, out)
		}
	}
}

func TestRenderVCFilter(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "gender", "race")
	l := must(BuildLabel(d, s, CountOptions{Workers: 1}))
	out := must(Render(l, RenderOptions{VCAttrs: []string{"gender"}}))
	if strings.Contains(out, "marital") {
		t.Error("filtered attribute still rendered in VC section")
	}
	if !strings.Contains(out, "Female") {
		t.Error("kept attribute missing")
	}
	// Unknown names in the filter are ignored, not fatal.
	out2 := must(Render(l, RenderOptions{VCAttrs: []string{"gender", "ghost"}}))
	if !strings.Contains(out2, "Female") {
		t.Error("render with unknown VC attr broke")
	}
}

func TestRenderTruncation(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "race", "marital status") // 9 patterns
	l := must(BuildLabel(d, s, CountOptions{Workers: 1}))
	out := must(Render(l, RenderOptions{MaxPCRows: 4}))
	if !strings.Contains(out, "more patterns elided") {
		t.Error("truncation note missing")
	}
}

func TestGroupDigits(t *testing.T) {
	cases := map[int]string{
		0:       "0",
		999:     "999",
		1000:    "1,000",
		60843:   "60,843",
		1234567: "1,234,567",
		-1234:   "-1,234",
	}
	for in, want := range cases {
		if got := groupDigits(in); got != want {
			t.Errorf("groupDigits(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := pct(9, 18); got != "50%" {
		t.Errorf("pct = %q", got)
	}
	if got := pct(1, 1000); got != "0.1%" {
		t.Errorf("pct small = %q", got)
	}
	if got := pct(1, 100000); got != "0.00%" {
		t.Errorf("pct tiny = %q", got)
	}
	if got := pct(5, 0); got != "-" {
		t.Errorf("pct zero total = %q", got)
	}
}
