package core

import (
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

// TestPartialLabelMatchesLabelOnNullFree: with no NULLs the partial-pattern
// label estimates identically to the standard label for every full pattern.
func TestPartialLabelMatchesLabelOnNullFree(t *testing.T) {
	d := testutil.Fig2()
	ps := DistinctTuples(d)
	lattice.AllSubsets(d.NumAttrs(), func(s lattice.AttrSet) bool {
		std := must(BuildLabel(d, s, CountOptions{Workers: 1}))
		part := BuildPartialLabel(d, s)
		if s.Size() >= 2 && std.Size() != part.Size() {
			t.Errorf("%v: sizes differ %d vs %d", s, std.Size(), part.Size())
		}
		for i := 0; i < ps.Len(); i++ {
			a := std.EstimateRow(ps.Row(i), ps.Attrs(i))
			b := part.EstimateRow(ps.Row(i), ps.Attrs(i))
			if a != b {
				t.Errorf("%v pattern %d: std %v != partial %v", s, i, a, b)
			}
		}
		return true
	})
}

// nullData builds a small NULL-bearing dataset where standard PC
// marginalization-by-summation loses tuples.
func nullData(t *testing.T) *dataset.Dataset {
	b := dataset.NewBuilder("nulls", "x", "y", "z")
	b.AppendStrings("a", "p", "1")
	b.AppendStrings("a", "p", "1")
	b.AppendStrings("a", "", "1") // NULL in y
	b.AppendStrings("a", "", "2") // NULL in y
	b.AppendStrings("b", "q", "")
	b.AppendStrings("b", "", "")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPartialPCExactOnNulls: Lookup returns exact counts for patterns over
// any subset of S even when tuples are partially NULL.
func TestPartialPCExactOnNulls(t *testing.T) {
	d := nullData(t)
	s := lattice.FullSet(3)
	ppc := BuildPartialPC(d, s)
	// Every pattern over every subset must match a scan.
	lattice.AllSubsets(3, func(r lattice.AttrSet) bool {
		vals := make([]uint16, 3)
		var rec func(ms []int)
		rec = func(ms []int) {
			if len(ms) == 0 {
				p, err := PatternFromIDs(r, vals)
				if err != nil {
					t.Fatal(err)
				}
				want := CountPattern(d, p)
				if got := ppc.Lookup(vals, r); got != want {
					t.Errorf("pattern %s: lookup %d, scan %d", p.Format(d), got, want)
				}
				return
			}
			a := ms[0]
			for id := uint16(1); int(id) <= d.Attr(a).DomainSize(); id++ {
				vals[a] = id
				rec(ms[1:])
			}
		}
		rec(r.Members())
		return true
	})
	// The empty pattern counts all tuples.
	if got := ppc.Lookup(make([]uint16, 3), 0); got != d.NumRows() {
		t.Errorf("empty lookup = %d, want %d", got, d.NumRows())
	}
}

// TestPartialBeatsStandardOnNulls: the standard PC drops NULL-bearing rows,
// so summing its entries undercounts restrictions; the partial PC does not.
func TestPartialBeatsStandardOnNulls(t *testing.T) {
	d := nullData(t)
	s := lattice.FullSet(3)
	std := must(BuildPC(d, s, CountOptions{Workers: 1}))
	part := BuildPartialPC(d, s)
	// Count of {x=a} by summing the standard PC: only rows non-NULL
	// everywhere survive (rows 1, 2) — undercount.
	xa := lattice.NewAttrSet(0)
	vals := []uint16{1, 0, 0} // x = "a"
	sum := 0
	noErr(std.EachCtx(nil, 3, func(v []uint16, c int) bool {
		if v[0] == 1 {
			sum += c
		}
		return true
	}))
	if sum >= 4 {
		t.Fatalf("standard PC summation = %d; expected an undercount < 4", sum)
	}
	if got := part.Lookup(vals, xa); got != 4 {
		t.Errorf("partial lookup = %d, want 4", got)
	}
}

// TestPartialPCSizeAccounting: Size matches PartialLabelSize.
func TestPartialPCSizeAccounting(t *testing.T) {
	d := nullData(t)
	for _, s := range []lattice.AttrSet{lattice.FullSet(3), lattice.NewAttrSet(0, 1)} {
		want, _ := PartialLabelSize(d, s, -1)
		if got := BuildPartialPC(d, s).Size(); got != want {
			t.Errorf("%v: size %d, PartialLabelSize %d", s, got, want)
		}
	}
}

// TestPartialLabelOnReductionData: the partial label reproduces the
// Lemma A.5 case-1 estimate on NULL-heavy reduction-style data.
func TestPartialLabelOnReductionData(t *testing.T) {
	d := nullData(t)
	s := lattice.NewAttrSet(0, 1) // {x, y}
	l := BuildPartialLabel(d, s)
	// Pattern {x=a, z=1}: base c_D({x=a}) from the partial PC is exact (4),
	// times frac(z=1) = 3/4.
	p, _ := NewPattern(d, map[string]string{"x": "a", "z": "1"})
	want := 4.0 * (3.0 / 4.0)
	if got := l.Estimate(p); got != want {
		t.Errorf("estimate = %v, want %v", got, want)
	}
}
