package htmlreport

import (
	"strings"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

func fig2Label(t *testing.T, names ...string) *core.Label {
	t.Helper()
	d := testutil.Fig2()
	s, err := lattice.FromNames(d.AttrNames(), names...)
	if err != nil {
		t.Fatal(err)
	}
	return must(core.BuildLabel(d, s, core.CountOptions{Workers: 1}))
}

func TestWriteBasics(t *testing.T) {
	l := fig2Label(t, "gender", "race")
	var sb strings.Builder
	if err := Write(&sb, l, Options{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"compas-fig2",
		"<strong>18</strong>",
		"gender", "race", "African-American",
		"Pattern counts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "Estimation quality") {
		t.Error("eval block rendered without Eval option")
	}
}

func TestWriteWithEval(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "gender", "race")
	l := must(core.BuildLabel(d, s, core.CountOptions{Workers: 1}))
	eval := core.Evaluate(l, core.DistinctTuples(d), core.EvalOptions{})
	var sb strings.Builder
	if err := Write(&sb, l, Options{Eval: &eval, Title: "My data"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Estimation quality") || !strings.Contains(out, "My data") {
		t.Error("eval block or title missing")
	}
}

func TestWriteEscapesHTML(t *testing.T) {
	b := dataset.NewBuilder("xss", "a", "b")
	b.AppendStrings("<script>alert(1)</script>", "x")
	b.AppendStrings("safe", "y")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	l := must(core.BuildLabel(d, lattice.NewAttrSet(0, 1), core.CountOptions{Workers: 1}))
	var sb strings.Builder
	if err := Write(&sb, l, Options{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "<script>alert") {
		t.Error("value not escaped")
	}
	if !strings.Contains(sb.String(), "&lt;script&gt;") {
		t.Error("escaped value missing entirely")
	}
}

func TestWriteFiltersAndTruncates(t *testing.T) {
	l := fig2Label(t, "race", "marital status") // 9 patterns
	var sb strings.Builder
	err := Write(&sb, l, Options{VCAttrs: []string{"gender"}, MaxPCRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "5 more patterns elided") {
		t.Error("truncation note missing")
	}
	// Only the gender group appears in the VC section (race still appears
	// as a PC column header).
	if strings.Contains(out, `<h3 class="attr">race</h3>`) {
		t.Error("filtered VC attribute still rendered")
	}
	if !strings.Contains(out, `<h3 class="attr">gender</h3>`) {
		t.Error("kept VC attribute missing")
	}
}
