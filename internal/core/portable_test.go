package core

// A portable label is the form a consumer of a published label holds: no
// rows, only the schema, |D|, the VC section and the PC section. It is
// what internal/artifact.Open assembles, so these tests build it the same
// way (see portable) and check that it answers like the live label.

import (
	"runtime"
	"testing"
	"testing/quick"

	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

// portable assembles l's data-free form the way artifact.Open does: a
// schema-only dataset, |D|, the VC section and the PC section keyed over
// the schema.
func portable(t *testing.T, l *Label) *Label {
	t.Helper()
	d := l.Dataset()
	schema, err := dataset.NewBuilderFrom(d, d.Name()).Build()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := PCFromRepr(schema, l.PC().Repr(), l.Rows())
	if err != nil {
		t.Fatal(err)
	}
	vc := make([][]int, d.NumAttrs())
	for a := range vc {
		for id := 1; id <= d.Attr(a).DomainSize(); id++ {
			vc[a] = append(vc[a], l.ValueCount(a, uint16(id)))
		}
	}
	return NewLabelFromParts(schema, l.Rows(), l.Attrs(), pc, vc)
}

// TestPortableTiersMatchBuild: a portable label's PC section, and every
// marginal it derives, gets the representation BuildPC picks over the
// label's rows, not over the schema-only dataset's zero rows — whatever
// representation the PC section was handed over in. The shapes are those
// internal/artifact saves and reopens: one-word dense and sorted, two- and
// three-word sorted, with 5% NULLs, and a spilled one-word PC section.
func TestPortableTiersMatchBuild(t *testing.T) {
	tiers := make(map[string]bool) // the marginals' representations
	for _, tc := range []struct {
		cfg    diffConfig
		budget int64
		tier   string // the PC section's representation in memory
	}{
		{diffConfig{rows: 2000, attrs: 4, domain: 6, nullRate: 0.05}, 0, "dense"},
		{diffConfig{rows: 2000, attrs: 4, domain: 50, nullRate: 0.05}, 0, "sorted"},
		{diffConfig{rows: 2000, attrs: 30, domain: 5, nullRate: 0.05}, 0, "wide"},
		{diffConfig{rows: 2000, attrs: 60, domain: 5, nullRate: 0.05}, 0, "wide"},
		{diffConfig{rows: 20000, attrs: 4, domain: 200}, 256 << 10, "spilled"},
	} {
		t.Run(tc.cfg.name(), func(t *testing.T) {
			d := diffDataset(t, tc.cfg, 0x7E+uint64(tc.cfg.attrs*tc.cfg.domain))
			full := lattice.FullSet(tc.cfg.attrs)
			l := must(BuildLabel(d, full, CountOptions{MemBudget: tc.budget, SpillDir: t.TempDir()}))
			defer l.ReleaseSpill()
			if got := pcRepr(l.PC()); got != tc.tier {
				t.Fatalf("PC section is %s in memory, want %s", got, tc.tier)
			}
			pl := portable(t, l)
			want := func(s lattice.AttrSet) string { return pcRepr(must(BuildPC(d, s, CountOptions{}))) }
			// A spilled PC section stays merge-on-read; an in-memory one
			// takes the tier of an unbudgeted build.
			wantSection := "spilled"
			if tc.budget == 0 {
				wantSection = want(full)
			}
			if got := pcRepr(pl.PC()); got != wantSection {
				t.Fatalf("portable PC section is %s, want %s", got, wantSection)
			}
			subs := []lattice.AttrSet{lattice.NewAttrSet(0), lattice.NewAttrSet(0, 1), full.Remove(0)}
			if tc.cfg.attrs > 10 {
				subs = append(subs, lattice.FullSet(10))
			}
			for _, sub := range subs {
				got, _ := must2(pl.MarginalPCCtx(nil, sub))
				if g, w := pcRepr(got), want(sub); g != w {
					t.Errorf("marginal %v is %s, BuildPC over the label's rows makes it %s", sub, g, w)
				}
				tiers[pcRepr(got)] = true
			}
			runtime.KeepAlive(l) // the portable spilled PC reads l's runs
		})
	}
	if !tiers["dense"] || !tiers["sorted"] || !tiers["wide"] {
		t.Errorf("the marginals land on %v; the shapes should reach the dense, sorted and wide tiers", tiers)
	}
}

func TestPortableRoundTrip(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "age group", "marital status")
	pl := portable(t, must(BuildLabel(d, s, CountOptions{Workers: 1})))
	if pl.Size() != 3 || pl.Rows() != 18 || pl.Dataset().NumRows() != 0 {
		t.Fatalf("portable size %d rows %d, dataset rows %d", pl.Size(), pl.Rows(), pl.Dataset().NumRows())
	}
	if pl.Attrs() != s {
		t.Fatalf("label attrs = %v, want %v", pl.Attrs(), s)
	}
}

// TestPortableEstimateMatchesLive (property): for every pattern of P_A, the
// portable label's estimate equals the live label's.
func TestPortableEstimateMatchesLive(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "gender", "age group")
	l := must(BuildLabel(d, s, CountOptions{Workers: 1}))
	pl := portable(t, l)
	ps := DistinctTuples(d)
	for i := 0; i < ps.Len(); i++ {
		row := ps.Row(i)
		got := must(pl.estimateRow(nil, row, ps.Attrs(i)))
		if want := l.EstimateRow(row, ps.Attrs(i)); got != want {
			t.Errorf("pattern %d: portable %v != live %v", i, got, want)
		}
	}
}

// TestPortableMarginalization: estimating a pattern that constrains only
// part of S sums matching PC entries.
func TestPortableMarginalization(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "gender", "age group")
	pl := portable(t, must(BuildLabel(d, s, CountOptions{Workers: 1})))
	p := must(NewPattern(pl.Dataset(), map[string]string{"gender": "Female"}))
	if got := must(pl.EstimateCtx(nil, p)); got != 9 {
		t.Errorf("marginal estimate = %v, want 9", got)
	}
}

// TestPortableEstimateErrors: a pattern naming an unknown attribute or a
// value outside its attribute's domain is an error, and the empty pattern
// estimates |D| although the portable label holds no rows.
func TestPortableEstimateErrors(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "gender", "race")
	pl := portable(t, must(BuildLabel(d, s, CountOptions{Workers: 1})))
	if _, err := NewPattern(pl.Dataset(), map[string]string{"ghost": "x"}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := NewPattern(pl.Dataset(), map[string]string{"gender": "Robot"}); err == nil {
		t.Error("out-of-domain value accepted")
	}
	empty := must(NewPattern(pl.Dataset(), nil))
	if got, err := pl.EstimateCtx(nil, empty); err != nil || got != 18 {
		t.Errorf("empty pattern = (%v, %v), want (18, nil)", got, err)
	}
}

// TestPortableDeterministicEncoding: the rendered label does not follow
// map iteration order, so a map-backed label renders the same text every
// time, and its portable form renders byte-identically.
func TestPortableDeterministicEncoding(t *testing.T) {
	d, err := datagen.BlueNile(500, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := lattice.FromNames(d.AttrNames(), "cut", "polish", "clarity")
	l := must(BuildLabel(d, s, CountOptions{Workers: 1, denseLimitOverride: -1}))
	if l.PC().Repr().U == nil {
		t.Fatal("label is not map-backed")
	}
	a := must(Render(l, RenderOptions{}))
	for i := 0; i < 5; i++ {
		if b := must(Render(l, RenderOptions{})); b != a {
			t.Fatal("rendering not deterministic (PC ordering unstable)")
		}
	}
	if b := must(Render(portable(t, l), RenderOptions{})); b != a {
		t.Errorf("portable form renders differently:\n%s\nwant:\n%s", b, a)
	}
}

// TestPortableRandomPatterns (property): portable and live estimates agree
// for random partial patterns.
func TestPortableRandomPatterns(t *testing.T) {
	d := testutil.Fig2()
	s, _ := lattice.FromNames(d.AttrNames(), "age group", "race")
	l := must(BuildLabel(d, s, CountOptions{Workers: 1}))
	pl := portable(t, l)
	prop := func(mask uint8, pick uint16) bool {
		attrs := lattice.AttrSet(mask) & lattice.FullSet(d.NumAttrs())
		vals := make([]uint16, d.NumAttrs())
		for _, a := range attrs.Members() {
			vals[a] = uint16(int(pick)%d.Attr(a).DomainSize()) + 1
		}
		got, err := pl.estimateRow(nil, vals, attrs)
		return err == nil && got == l.EstimateRow(vals, attrs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
