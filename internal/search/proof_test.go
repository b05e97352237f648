package search

// Coverage of the enumeration's proofs: the bound they rest on holds on
// data with NULLs, and the share of verdicts they decide on the paper's
// emulators is pinned, with the evaluation's label builds, so a proof or
// an index that stops firing fails here and not only in a benchmark.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// nullTables returns six seeded tables of 7 attributes with domains of
// 2–5 values, 400–1,000 rows and about 10% NULL cells.
func nullTables(t *testing.T) []*dataset.Dataset {
	t.Helper()
	var out []*dataset.Dataset
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x4E11))
		const attrs = 7
		names := make([]string, attrs)
		doms := make([]int, attrs)
		for a := range names {
			names[a] = fmt.Sprintf("a%d", a)
			doms[a] = 2 + rng.IntN(4)
		}
		bld := dataset.NewBuilder(fmt.Sprintf("nulls%d", seed), names...)
		for a, dom := range doms {
			for v := 0; v < dom; v++ {
				if _, err := bld.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		ids := make([]uint16, attrs)
		for r, rows := 0, 400+rng.IntN(601); r < rows; r++ {
			for a, dom := range doms {
				ids[a] = uint16(1 + rng.IntN(dom))
				if rng.IntN(10) == 0 {
					ids[a] = dataset.Null
				}
			}
			bld.AppendIDs(ids...)
		}
		d, err := bld.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// TestProofBoundHolds checks the bound every proof rests on, over every
// set of the NULL tables: |P_c| ≤ |P_{c∖b}| · |dom_D(b)| for every b ∈ c,
// where |dom_D(b)| counts the values of b that occur.
func TestProofBoundHolds(t *testing.T) {
	for _, d := range nullTables(t) {
		sizes := make(map[lattice.AttrSet]int)
		lattice.AllSubsets(d.NumAttrs(), func(s lattice.AttrSet) bool {
			sizes[s], _ = must2(core.LabelSize(d, s, -1, core.CountOptions{Workers: 1}))
			return true
		})
		dom := newLevelSizer(d, Options{Bound: 1}, &Stats{}).dom
		tight := 0
		for c, size := range sizes {
			if c.Size() < 2 {
				if size != dom[c.MinIndex()] {
					t.Fatalf("%s: singleton %v has %d patterns, %d occurring values", d.Name(), c, size, dom[c.MinIndex()])
				}
				continue
			}
			for _, b := range c.Members() {
				u := sizes[c.Remove(b)] * dom[b]
				if size > u {
					t.Fatalf("%s: |P_%v| = %d > |P_%v| · |dom(%d)| = %d", d.Name(), c, size, c.Remove(b), b, u)
				}
				if size == u {
					tight++
				}
			}
		}
		if tight == 0 {
			t.Fatalf("%s: the bound is never tight; the tables do not exercise it", d.Name())
		}
	}
}

// TestPinnedProofAndLabelCounts pins the work both halves of the search
// skip on the paper's emulators at their paper row counts, seed 1, with
// FastEval: the in-bound verdicts proved with no scan, and the labels the
// evaluation builds (the winner's alone on COMPAS and Credit Card, where
// scoring through the row index never switches). Neither depends on the
// worker count.
func TestPinnedProofAndLabelCounts(t *testing.T) {
	cases := []struct {
		name           string
		gen            func(rows int, seed uint64) (*dataset.Dataset, error)
		rows, bound    int
		proved, labels int // labels 0: not pinned
	}{
		{"compas", datagen.COMPAS, datagen.COMPASRows, 100, 1672, 1},
		{"creditcard", datagen.CreditCard, datagen.CreditCardRows, 100, 1413, 1},
		{"bluenile", datagen.BlueNile, datagen.BlueNileRows, 50, 18, 0},
	}
	for _, c := range cases {
		d, err := c.gen(c.rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		ps := core.DistinctTuples(d)
		for _, workers := range []int{1, 2, 8} {
			res, err := TopDown(d, ps, Options{Bound: c.bound, FastEval: true, CountOptions: core.CountOptions{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.Proved != c.proved {
				t.Errorf("%s workers=%d: %d sets proved in bound, want %d", c.name, workers, st.Proved, c.proved)
			}
			if st.Proved+st.RefinedSets != st.SizeComputed {
				t.Errorf("%s workers=%d: %d proved + %d kernel-sized != %d examined", c.name, workers, st.Proved, st.RefinedSets, st.SizeComputed)
			}
			if c.labels > 0 && st.LabelsBuilt != c.labels {
				t.Errorf("%s workers=%d: %d labels built, want %d", c.name, workers, st.LabelsBuilt, c.labels)
			}
		}
	}
}
