package search

// Differential coverage for the level sizer: enumeration and full searches
// must agree exactly with reference traversals that size every set on its
// own with a naive per-row group-by, for every worker count — including
// levels whose sibling groups mix dense slabs and hash sets.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// schedulerDataset is small-domain and deep enough that the search runs
// several lattice levels, exercising multi-level parent reuse.
func schedulerDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := datagen.BlueNile(8000, 21)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// uniformDataset draws 8000 rows uniformly and independently, one
// attribute per given domain size.
func uniformDataset(t *testing.T, domains ...int) *dataset.Dataset {
	t.Helper()
	spec := datagen.Spec{Name: "uniform"}
	for a, dom := range domains {
		vals := make([]string, dom)
		for v := range vals {
			vals[v] = fmt.Sprintf("v%d", v)
		}
		spec.Cols = append(spec.Cols, datagen.Col{Name: fmt.Sprintf("a%d", a), Values: vals})
	}
	d, err := spec.Generate(8000, 31)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// refSize is the reference label size: the distinct NULL-free tuples of d
// over s, collected as value-id strings without any engine code.
func refSize(d *dataset.Dataset, s lattice.AttrSet) int {
	seen := make(map[string]struct{})
	var b strings.Builder
rows:
	for r := 0; r < d.NumRows(); r++ {
		b.Reset()
		for _, a := range s.Members() {
			id := d.ID(r, a)
			if id == dataset.Null {
				continue rows
			}
			b.WriteString(strconv.Itoa(int(id)))
			b.WriteByte(',')
		}
		seen[b.String()] = struct{}{}
	}
	return len(seen)
}

// refTopDown is Algorithm 1's enumeration with every set sized by refSize:
// the sorted maximal in-bound candidates and the sized/in-bound counts.
func refTopDown(d *dataset.Dataset, bound int) (cands []lattice.AttrSet, sized, inBound int) {
	n := d.NumAttrs()
	maximal := make(map[lattice.AttrSet]struct{})
	for frontier := lattice.AttrSet(0).Gen(n); len(frontier) > 0; {
		var next []lattice.AttrSet
		for _, s := range frontier {
			for _, c := range s.Gen(n) {
				sized++
				if refSize(d, c) > bound {
					continue
				}
				inBound++
				next = append(next, c)
				for _, p := range c.Parents() {
					delete(maximal, p)
				}
				maximal[c] = struct{}{}
			}
		}
		frontier = next
	}
	for s := range maximal {
		cands = append(cands, s)
	}
	lattice.SortAttrSets(cands)
	return cands, sized, inBound
}

// refNaive is the naive level-wise enumeration with every set sized by
// refSize: all in-bound sets of size ≥ 2 up to the first level with none.
func refNaive(d *dataset.Dataset, bound int) (cands []lattice.AttrSet, sized, inBound int) {
	n := d.NumAttrs()
	for k := 2; k <= n; k++ {
		hit := false
		lattice.Combinations(n, k, func(s lattice.AttrSet) bool {
			sized++
			if refSize(d, s) <= bound {
				inBound++
				hit = true
				cands = append(cands, s)
			}
			return true
		})
		if !hit {
			break
		}
	}
	lattice.SortAttrSets(cands)
	return cands, sized, inBound
}

func TestSchedulerMatchesScanEnumeration(t *testing.T) {
	bn := schedulerDataset(t)
	cases := []struct {
		name  string
		d     *dataset.Dataset
		bound int
	}{
		{"bluenile/10", bn, 10},
		{"bluenile/50", bn, 50},
		{"bluenile/300", bn, 300},
		// Pairs and triples (900 and 27000 key slots) count on dense slabs
		// at 8000 rows; quadruples and the full set count in hash sets.
		{"uniform30/8000", uniformDataset(t, 30, 30, 30, 30, 30), 8000},
		// A 300-value attribute splits the triples level itself: triples
		// without it count on dense slabs, triples with it in hash sets,
		// side by side in the same sibling groups. At this bound the dense
		// triples (~6900 patterns) fit and the others (~7900) do not, so a
		// verdict routed back to the wrong candidate changes the
		// candidates.
		{"uniform30+300/7400", uniformDataset(t, 30, 30, 30, 30, 300), 7400},
	}
	for _, c := range cases {
		want, sized, inBound := refTopDown(c.d, c.bound)
		for _, workers := range []int{1, 2, 8} {
			for _, noProofs := range []bool{false, true} {
				name := fmt.Sprintf("%s workers=%d noProofs=%v", c.name, workers, noProofs)
				cands, stats, err := Enumerate(c.d, Options{Bound: c.bound, CountOptions: core.CountOptions{Workers: workers}, noProofs: noProofs})
				if err != nil {
					t.Fatal(err)
				}
				if len(cands) != len(want) {
					t.Fatalf("%s: %d candidates, reference %d", name, len(cands), len(want))
				}
				for i := range cands {
					if cands[i] != want[i] {
						t.Fatalf("%s: candidate %d = %v, reference %v", name, i, cands[i], want[i])
					}
				}
				if stats.SizeComputed != sized || stats.InBound != inBound {
					t.Fatalf("%s: sized/in-bound %d/%d, reference %d/%d",
						name, stats.SizeComputed, stats.InBound, sized, inBound)
				}
				// Every set here keys in uint64 and stays in memory, so
				// every set the bounds leave open is sized from its gen
				// parent's key block; with the proofs off, every set is.
				if stats.Proved+stats.RefinedSets != stats.SizeComputed || (noProofs && stats.Proved != 0) {
					t.Fatalf("%s: %d proved and %d sized from a parent key block of %d sets",
						name, stats.Proved, stats.RefinedSets, stats.SizeComputed)
				}
				if workers == 1 && noProofs && stats.PoolHits == 0 {
					t.Fatalf("%s: sizing never recycled a slab", name)
				}
			}
		}
	}
}

// TestSchedulerFullSearchAgreement runs both algorithms end to end against
// their reference enumerations: the counters match, and the chosen label
// is the first candidate, in sorted order, with the smallest max error.
func TestSchedulerFullSearchAgreement(t *testing.T) {
	d := schedulerDataset(t)
	ps := core.DistinctTuples(d)
	type algo struct {
		name string
		run  func(opts Options) (*Result, error)
		ref  func(d *dataset.Dataset, bound int) ([]lattice.AttrSet, int, int)
	}
	algos := []algo{
		{"topdown", func(o Options) (*Result, error) { return TopDown(d, ps, o) }, refTopDown},
		{"naive", func(o Options) (*Result, error) { return Naive(d, ps, o) }, refNaive},
	}
	for _, bound := range []int{20, 100} {
		for _, a := range algos {
			cands, sized, inBound := a.ref(d, bound)
			wantAttrs, wantErr := lattice.AttrSet(0), 0.0
			for i, s := range cands {
				l := must(core.BuildLabel(d, s, core.CountOptions{Workers: 1}))
				e, _ := core.MaxAbsError(l, ps, core.MaxErrOptions{Workers: 1})
				if i == 0 || e < wantErr {
					wantAttrs, wantErr = s, e
				}
			}
			for _, workers := range []int{1, 2} {
				got, err := a.run(Options{Bound: bound, FastEval: true, CountOptions: core.CountOptions{Workers: workers}})
				if err != nil {
					t.Fatal(err)
				}
				if got.Attrs != wantAttrs || got.MaxErr != wantErr {
					t.Errorf("%s bound=%d workers=%d: chose (%v, %v), reference (%v, %v)",
						a.name, bound, workers, got.Attrs, got.MaxErr, wantAttrs, wantErr)
				}
				if got.Stats.SizeComputed != sized || got.Stats.InBound != inBound {
					t.Errorf("%s bound=%d workers=%d: counters %d/%d, reference %d/%d", a.name, bound, workers,
						got.Stats.SizeComputed, got.Stats.InBound, sized, inBound)
				}
			}
		}
	}
}
