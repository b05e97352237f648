package pcbl

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pcbl/internal/testutil"
)

func TestFacadeEndToEnd(t *testing.T) {
	d := testutil.Fig2()
	res, err := GenerateLabel(d, GenerateOptions{Bound: 5, Engine: EngineOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size > 5 {
		t.Errorf("label size %d exceeds bound", res.Size)
	}
	// Example 2.12 through the facade.
	l, err := BuildLabel(d, "age group", "marital status")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPattern(d, map[string]string{
		"gender": "Female", "age group": "20-39", "marital status": "married",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Estimate(p); got != 3 {
		t.Errorf("estimate = %v, want 3", got)
	}
	if got := Count(d, p); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	eval := Evaluate(l, nil)
	if eval.N != 18 {
		t.Errorf("eval N = %d", eval.N)
	}
	out, err := RenderLabel(l, &eval)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Total size: 18") {
		t.Errorf("render missing total: %s", out)
	}
}

func TestFacadeNaive(t *testing.T) {
	d := testutil.Fig2()
	res, err := GenerateLabel(d, GenerateOptions{Bound: 5, Algorithm: Naive, Engine: EngineOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size > 5 {
		t.Error("naive exceeded bound")
	}
	if _, err := GenerateLabel(d, GenerateOptions{Bound: 5, Algorithm: "zigzag"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestFacadePortableRoundTrip: a label published as an artifact and
// reopened without its data (its portable form) keeps its size and
// estimates exactly like the live label.
func TestFacadePortableRoundTrip(t *testing.T) {
	d := testutil.Fig2()
	l, err := BuildLabel(d, "gender", "race")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "artifact")
	if err := SaveLabelArtifact(l, dir); err != nil {
		t.Fatal(err)
	}
	pl, _, err := OpenLabelArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Size() != l.Size() || pl.Rows() != l.Rows() {
		t.Errorf("reopened size %d rows %d, want %d rows %d", pl.Size(), pl.Rows(), l.Size(), l.Rows())
	}
	// Estimates agree with the live label.
	const expr = "gender=Female, race=Hispanic, marital status=divorced"
	want := must(l.EstimateCtx(nil, must(ParsePattern(d, expr))))
	got, err := pl.EstimateCtx(nil, must(ParsePattern(pl.Dataset(), expr)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("reopened estimate %v != live %v", got, want)
	}
}

func TestFacadeCSV(t *testing.T) {
	d := testutil.Fig2()
	var sb strings.Builder
	if err := WriteCSV(&sb, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()), CSVOptions{Name: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 18 || back.NumAttrs() != 4 {
		t.Errorf("round trip shape (%d, %d)", back.NumRows(), back.NumAttrs())
	}
}

func TestAttrSetOf(t *testing.T) {
	d := testutil.Fig2()
	s, err := AttrSetOf(d, "gender", "race")
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 2 {
		t.Error("attr set size wrong")
	}
	if _, err := AttrSetOf(d, "nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestFacadeAttrBeyondColumn63 loads a 70-column CSV: the facade calls
// that resolve attribute names return an error for c69, which lies past
// the 64 columns an attribute set holds, instead of panicking.
func TestFacadeAttrBeyondColumn63(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 70; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "c%d", i)
	}
	for r := 0; r < 4; r++ {
		sb.WriteByte('\n')
		for i := 0; i < 70; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "v%d", (r+i)%2)
		}
	}
	d, err := ReadCSV(strings.NewReader(sb.String()), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumAttrs() != 70 {
		t.Fatalf("read %d attributes, want 70", d.NumAttrs())
	}
	if _, err := BuildLabel(d, "c0", "c1"); err != nil {
		t.Fatalf("label over c0,c1: %v", err)
	}
	_, err1 := AttrSetOf(d, "c69")
	_, err2 := BuildLabel(d, "c0", "c69")
	_, _, err3 := LabelSize(d, -1, "c69")
	_, err4 := ParsePattern(d, "c69 = v1")
	_, err5 := NewPattern(d, map[string]string{"c0": "v1", "c69": "v1"})
	for i, err := range []error{err1, err2, err3, err4, err5} {
		if err == nil || !strings.Contains(err.Error(), "column 69") {
			t.Errorf("call %d: error %v, want one naming column 69", i+1, err)
		}
	}
}

func TestFacadeExtensions(t *testing.T) {
	d := testutil.Fig2()
	// ParsePattern through the expression grammar.
	p, err := ParsePattern(d, "gender = Female AND race = Hispanic")
	if err != nil {
		t.Fatal(err)
	}
	if got := Count(d, p); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	if _, err := ParsePattern(d, "gender ="); err == nil {
		t.Error("bad expression accepted")
	}
	// PatternsOver as workload.
	ps, err := PatternsOver(d, "age group", "marital status")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 3 {
		t.Errorf("P_S size = %d, want 3", ps.Len())
	}
	l, _ := BuildLabel(d, "age group", "marital status")
	// HTML report renders.
	var sb strings.Builder
	eval := Evaluate(l, nil)
	if err := WriteHTMLReport(&sb, l, &eval); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<!DOCTYPE html>") {
		t.Error("HTML report malformed")
	}
}

func TestFacadeLabelSize(t *testing.T) {
	d := testutil.Fig2()
	// Example 2.10: |P_{age group, marital status}| = 3.
	size, within, err := LabelSize(d, -1, "age group", "marital status")
	if err != nil {
		t.Fatal(err)
	}
	if size != 3 || !within {
		t.Errorf("LabelSize = (%d, %v), want (3, true)", size, within)
	}
	// Bound-abort contract: a bound below the true size reports bound+1.
	size, within, err = LabelSize(d, 2, "age group", "marital status")
	if err != nil {
		t.Fatal(err)
	}
	if size != 3 || within {
		t.Errorf("capped LabelSize = (%d, %v), want (3, false)", size, within)
	}
	if _, _, err := LabelSize(d, -1, "no such attribute"); err == nil {
		t.Error("unknown attribute accepted")
	}

	// Sizing a frontier agrees with the per-set path.
	s1, err := AttrSetOf(d, "age group", "marital status")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := AttrSetOf(d, "gender")
	if err != nil {
		t.Fatal(err)
	}
	sizes, withins, err := LabelSizes(d, []AttrSet{s1, s2}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sizes[0] != 3 || !withins[0] {
		t.Errorf("LabelSizes[0] = (%d, %v), want (3, true)", sizes[0], withins[0])
	}
	if sizes[1] != 2 || !withins[1] {
		t.Errorf("LabelSizes[1] = (%d, %v), want (2, true)", sizes[1], withins[1])
	}
}
