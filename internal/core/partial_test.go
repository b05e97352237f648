package core

import (
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

// TestPartialEqualsFullOnNullFree: on NULL-free data with |S| ≥ 2, the
// partial-pattern accounting coincides with the standard label size.
func TestPartialEqualsFullOnNullFree(t *testing.T) {
	d := testutil.Fig2()
	n := d.NumAttrs()
	lattice.AllSubsets(n, func(s lattice.AttrSet) bool {
		if s.Size() < 2 {
			return true
		}
		full, _ := labelSize(d, s, -1)
		part, _ := PartialLabelSize(d, s, -1)
		if full != part {
			t.Errorf("%v: partial %d != full %d", s, part, full)
		}
		return true
	})
}

// TestPartialCountsPartialPatterns: a tuple NULL in part of S contributes
// its restriction when at least two attributes remain, and nothing
// otherwise.
func TestPartialCountsPartialPatterns(t *testing.T) {
	b := dataset.NewBuilder("p", "x", "y", "z")
	b.AppendStrings("a", "b", "c") // full: pattern (a,b,c)
	b.AppendStrings("a", "b", "")  // partial: pattern (a,b,·)
	b.AppendStrings("a", "", "")   // single attribute: not counted
	b.AppendStrings("", "", "")    // empty: not counted
	b.AppendStrings("a", "b", "c") // duplicate of row 1
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := lattice.FullSet(3)
	got, within := PartialLabelSize(d, s, -1)
	if !within || got != 2 {
		t.Errorf("partial size = (%d, %v), want (2, true)", got, within)
	}
	// Standard LabelSize sees only the fully non-NULL rows.
	full, _ := labelSize(d, s, -1)
	if full != 1 {
		t.Errorf("full size = %d, want 1", full)
	}
}

func TestPartialLabelSizeCap(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "race", "marital status") // 9 patterns
	if got, within := PartialLabelSize(d, s, 4); within || got != 5 {
		t.Errorf("capped = (%d, %v), want (5, false)", got, within)
	}
	if got, within := PartialLabelSize(d, s, 100); !within || got != 9 {
		t.Errorf("uncapped = (%d, %v), want (9, true)", got, within)
	}
}
