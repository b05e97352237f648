package core

// The VC sharing contract: labels built from a dataset serve the dataset's
// one VC table (dataset.Dataset.VCTable) instead of recounting it, and
// nothing writes into that shared table. Labels whose VC does not come
// from their dataset's rows — reopened from an artifact, or merged — keep
// VC of their own.

import (
	"sync"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// vcSnapshot copies every ValueCount and Fraction a label serves.
func vcSnapshot(l *Label) (counts [][]int, fracs [][]float64) {
	d := l.Dataset()
	counts = make([][]int, d.NumAttrs())
	fracs = make([][]float64, d.NumAttrs())
	for a := range counts {
		for id := 1; id <= d.Attr(a).DomainSize(); id++ {
			counts[a] = append(counts[a], l.ValueCount(a, uint16(id)))
			fracs[a] = append(fracs[a], l.Fraction(a, uint16(id)))
		}
	}
	return counts, fracs
}

// checkVC asserts that l serves exactly the given counts and their
// fractions.
func checkVC(t *testing.T, what string, l *Label, want [][]int) {
	t.Helper()
	counts, fracs := vcSnapshot(l)
	for a := range want {
		wantFr := dataset.FractionsOf(want[a])
		for i := range want[a] {
			if counts[a][i] != want[a][i] || fracs[a][i] != wantFr[i] {
				t.Fatalf("%s: attribute %d serves (%v, %v), want (%v, %v)", what, a, counts[a], fracs[a], want[a], wantFr)
			}
		}
	}
}

// valueCounts recounts every attribute of d into fresh slices.
func valueCounts(d *dataset.Dataset) [][]int {
	out := make([][]int, d.NumAttrs())
	for a := range out {
		out[a] = d.ValueCounts(a)
	}
	return out
}

func TestLabelsShareDatasetVC(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 3000, attrs: 5, domain: 6, nullRate: 0.1}, 0x5C)
	base, delta := splitDataset(t, d, 2700)
	l1 := must(BuildLabel(base, lattice.NewAttrSet(0, 1), CountOptions{Workers: 1}))
	l2 := must(BuildLabel(base, lattice.NewAttrSet(1, 2), CountOptions{Workers: 1}))

	counts, fracs := base.VCTable()
	for a := range counts {
		if &l1.vc[a][0] != &counts[a][0] || &l2.vc[a][0] != &counts[a][0] ||
			&l1.fracs[a][0] != &fracs[a][0] || &l2.fracs[a][0] != &fracs[a][0] {
			t.Fatalf("attribute %d: labels do not share the dataset's VC table", a)
		}
	}
	baseVC := valueCounts(base)
	checkVC(t, "l2 before merge", l2, baseVC)
	enc2, err := Render(l2, RenderOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dl := must(BuildLabel(delta, l1.Attrs(), CountOptions{Workers: 1}))
	if _, _, err := l1.Merge(dl, -1); err != nil {
		t.Fatal(err)
	}
	checkVC(t, "merged l1", l1, valueCounts(d))
	if &l1.vc[0][0] == &counts[0][0] {
		t.Fatal("merged label still serves the base dataset's table")
	}

	checkVC(t, "l2 after merge", l2, baseVC)
	after, err := Render(l2, RenderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after != enc2 {
		t.Error("merge into l1 changed l2's rendering")
	}
	// A fresh label over each dataset serves that dataset's table as is.
	checkVC(t, "base dataset's table", must(BuildLabel(base, l1.Attrs(), CountOptions{Workers: 1})), baseVC)
	checkVC(t, "delta dataset's table", must(BuildLabel(delta, l1.Attrs(), CountOptions{Workers: 1})), valueCounts(delta))
}

// TestReopenedLabelKeepsItsVC assembles a label the way artifact.OpenFS
// does, over a schema-only dataset: it must serve the VC it was given,
// not the zeros its dataset's own table holds.
func TestReopenedLabelKeepsItsVC(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 1000, attrs: 4, domain: 5, nullRate: 0.1}, 0x5D)
	s := lattice.NewAttrSet(0, 2)
	built := must(BuildLabel(d, s, CountOptions{Workers: 1}))
	schema, err := dataset.NewBuilderFrom(d, d.Name()).Build()
	if err != nil {
		t.Fatal(err)
	}
	saved := valueCounts(d)
	l := NewLabelFromParts(schema, d.NumRows(), s, built.PC(), saved)
	checkVC(t, "reopened", l, saved)
	if c, _ := schema.VCTable(); c[0][0] != 0 {
		t.Fatalf("schema-only dataset counts %d rows of value 1, want 0", c[0][0])
	}
	checkVC(t, "reopened after the schema's table was filled", l, saved)
}

// TestConcurrentLabelBuildsShareVC builds labels over a fresh dataset from
// eight goroutines at once, so the table's first fill races the builds.
// Run with -race -count=10.
func TestConcurrentLabelBuildsShareVC(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 4000, attrs: 6, domain: 5, nullRate: 0.05}, 0x5E)
	want := valueCounts(d)
	labels := make([]*Label, 8)
	var wg sync.WaitGroup
	for g := range labels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels[g] = must(BuildLabel(d, lattice.NewAttrSet(g%6, (g+1)%6), CountOptions{Workers: 1}))
		}()
	}
	wg.Wait()
	for g, l := range labels {
		checkVC(t, "concurrent build", l, want)
		if &l.vc[0][0] != &labels[0].vc[0][0] {
			t.Errorf("label %d holds a VC table of its own", g)
		}
	}
}
