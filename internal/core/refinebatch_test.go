package core

// Differential coverage for batched sibling refinement: RefineSizes must
// agree exactly with sequential LabelSize — sizes and cap-abort verdicts at
// the boundary values — across randomized datasets and every dense-keyable
// parent (dense-slab and hash-set accumulators alike), with and without the
// pool, for workers 1, 2 and 8.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// nonMembers returns the attributes outside s, ascending.
func nonMembers(s lattice.AttrSet, n int) []int {
	var out []int
	for a := 0; a < n; a++ {
		if !s.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// TestDifferentialRefineSizes: every batched size must equal the
// sequential LabelSize across the cap grid, for every dense-keyable parent
// and every worker count.
func TestDifferentialRefineSizes(t *testing.T) {
	for ci, cfg := range diffConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0xBA7C4))
			checkRefineSizes(t, d, diffAttrSets(cfg.attrs, rng))
		})
	}
	// An all-NULL attribute has an empty domain: refining by it yields a
	// zero-slot compact space, and a parent holding it has no groups.
	t.Run("all-null", func(t *testing.T) {
		bld := dataset.NewBuilder("nulls", "a", "b", "c")
		for i := 0; i < 200; i++ {
			bld.AppendStrings(fmt.Sprintf("x%d", i%2), "", fmt.Sprintf("y%d", i%3))
		}
		d, err := bld.Build()
		if err != nil {
			t.Fatal(err)
		}
		if d.Attr(1).DomainSize() != 0 {
			t.Fatalf("attribute b has domain %d, want 0", d.Attr(1).DomainSize())
		}
		checkRefineSizes(t, d, []lattice.AttrSet{0, lattice.NewAttrSet(0), lattice.NewAttrSet(1), lattice.NewAttrSet(0, 2)})
	})
}

// checkRefineSizes probes every dense-keyable parent among sets with the
// batch of all its non-member attributes.
func checkRefineSizes(t *testing.T, d *dataset.Dataset, sets []lattice.AttrSet) {
	t.Helper()
	pool := NewVecPool(0)
	probed := 0
	for _, s := range sets {
		attrs := nonMembers(s, d.NumAttrs())
		if _, ok := DenseKeyable(d, s); !ok || len(attrs) == 0 {
			continue
		}
		probed++
		// One representative child picks the cap grid; the batch is
		// probed whole at each cap so siblings abort independently.
		trueSize, _ := labelSize(d, s.Add(attrs[0]), -1)
		for _, cap := range diffCaps(trueSize) {
			for _, workers := range diffWorkerCounts {
				opts := testCountOptions(workers)
				if workers == 2 {
					opts.Pool = pool // exercise pooled and unpooled paths
				}
				sizes, within, err := RefineSizes(d, s, attrs, cap, opts)
				if err != nil {
					t.Fatal(err)
				}
				for j, a := range attrs {
					wantSize, wantWithin := labelSize(d, s.Add(a), cap)
					if sizes[j] != wantSize || within[j] != wantWithin {
						t.Fatalf("parent %v+%d cap=%d workers=%d: got (%d, %v), want (%d, %v)",
							s, a, cap, workers, sizes[j], within[j], wantSize, wantWithin)
					}
				}
			}
		}
	}
	if probed == 0 {
		t.Fatal("no dense-keyable parent probed")
	}
}

// TestRefineSizesPanics documents the programmer-error contract: member
// and duplicate attributes and a parent that is not dense-keyable are
// rejected.
func TestRefineSizesPanics(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 60, attrs: 3, domain: 3, nullRate: 0}, 5)
	// A 2000-value domain exceeds the dense sparsity guard at 60 rows.
	wide := diffDataset(t, diffConfig{rows: 60, attrs: 3, domain: 2000, nullRate: 0}, 5)
	for name, call := range map[string]func(){
		"member":            func() { RefineSizes(d, lattice.NewAttrSet(0), []int{0}, -1, CountOptions{Workers: 1}) },
		"duplicate":         func() { RefineSizes(d, lattice.NewAttrSet(0), []int{1, 1}, -1, CountOptions{Workers: 1}) },
		"non-dense-keyable": func() { RefineSizes(wide, lattice.NewAttrSet(0), []int{1}, -1, CountOptions{Workers: 1}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("refine sizes with a %s argument must panic", name)
				}
			}()
			call()
		})
	}
}
