package search

// Differential coverage for the frontier scheduler: refinement-sized
// searches must agree exactly with raw-scan-sized searches (the PR 1
// behaviour, reachable via DisableRefine + a negative DenseLimit) for
// every worker count, including searches whose candidates split between
// batched refinement and the fused raw scan.

import (
	"fmt"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
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

func TestSchedulerMatchesScanEnumeration(t *testing.T) {
	bn := schedulerDataset(t)
	cases := []struct {
		name  string
		d     *dataset.Dataset
		bound int
		mixed bool // the search must size sets on both paths
	}{
		{"bluenile/10", bn, 10, false},
		{"bluenile/50", bn, 50, false},
		{"bluenile/300", bn, 300, false},
		// Pairs and triples (900 and 27000 key slots) stay dense-keyable
		// at 8000 rows and batch; quadruples and the full set do not and
		// take the raw scan.
		{"uniform30/8000", uniformDataset(t, 30, 30, 30, 30, 30), 8000, true},
		// A 300-value attribute splits the triples level itself: triples
		// without it batch, triples with it overflow the dense key space
		// of their pair parent and scan, interleaved in frontier order. At
		// this bound the batched triples (~6900 patterns) fit and the
		// scanned ones (~7900) do not, so a verdict routed back to the
		// wrong candidate changes the candidates.
		{"uniform30+300/7400", uniformDataset(t, 30, 30, 30, 30, 300), 7400, true},
	}
	for _, c := range cases {
		base, baseStats, err := Enumerate(c.d, Options{
			Bound: c.bound, Workers: 1, DisableRefine: true, DenseLimit: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if baseStats.RefinedSets != 0 || baseStats.ScannedSets != baseStats.SizeComputed {
			t.Fatalf("%s: scan-only run reports refined=%d scanned=%d sized=%d",
				c.name, baseStats.RefinedSets, baseStats.ScannedSets, baseStats.SizeComputed)
		}
		for _, workers := range []int{1, 2, 8} {
			cands, stats, err := Enumerate(c.d, Options{Bound: c.bound, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(cands) != len(base) {
				t.Fatalf("%s workers=%d: %d candidates, scan path %d", c.name, workers, len(cands), len(base))
			}
			for i := range cands {
				if cands[i] != base[i] {
					t.Fatalf("%s workers=%d: candidate %d = %v, scan path %v", c.name, workers, i, cands[i], base[i])
				}
			}
			if stats.SizeComputed != baseStats.SizeComputed || stats.InBound != baseStats.InBound {
				t.Fatalf("%s workers=%d: sized/in-bound %d/%d, scan path %d/%d",
					c.name, workers, stats.SizeComputed, stats.InBound, baseStats.SizeComputed, baseStats.InBound)
			}
			if stats.RefinedSets+stats.ScannedSets != stats.SizeComputed {
				t.Fatalf("%s workers=%d: path counters %d+%d do not cover %d sized sets",
					c.name, workers, stats.RefinedSets, stats.ScannedSets, stats.SizeComputed)
			}
			if stats.RefinedSets == 0 && stats.SizeComputed > 0 {
				t.Fatalf("%s workers=%d: refinement never fired", c.name, workers)
			}
			if c.mixed && stats.ScannedSets == 0 {
				t.Fatalf("%s workers=%d: no set took the raw scan (refined=%d)", c.name, workers, stats.RefinedSets)
			}
		}
	}
}

// TestSchedulerBatchAblation pins the two sizing paths against each
// other: batched sibling refinement (default) and raw scans
// (DisableRefine) must enumerate identical candidates with identical
// examined/in-bound counters, and the counters must attribute the work to
// the right path.
func TestSchedulerBatchAblation(t *testing.T) {
	d := schedulerDataset(t)
	for _, bound := range []int{10, 100} {
		scan, scanStats, err := Enumerate(d, Options{Bound: bound, Workers: 1, DisableRefine: true})
		if err != nil {
			t.Fatal(err)
		}
		batched, bStats, err := Enumerate(d, Options{Bound: bound, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(batched) != len(scan) {
			t.Fatalf("bound=%d: %d candidates, scan path %d", bound, len(batched), len(scan))
		}
		for i := range batched {
			if batched[i] != scan[i] {
				t.Fatalf("bound=%d: candidate %d = %v, scan path %v", bound, i, batched[i], scan[i])
			}
		}
		if bStats.SizeComputed != scanStats.SizeComputed || bStats.InBound != scanStats.InBound {
			t.Fatalf("bound=%d: sized/in-bound %d/%d, scan path %d/%d",
				bound, bStats.SizeComputed, bStats.InBound, scanStats.SizeComputed, scanStats.InBound)
		}
		if bStats.BatchRefines == 0 {
			t.Fatalf("bound=%d: batched run never used the batch tier", bound)
		}
		if bStats.PoolHits == 0 {
			t.Fatalf("bound=%d: batched run never recycled a slab", bound)
		}
		if bStats.RefinedSets == 0 {
			t.Fatalf("bound=%d: batched run attributes no sets to refinement", bound)
		}
	}
}

// TestSchedulerFullSearchAgreement runs both algorithms end to end with
// the scheduler on and off; chosen label, error and counters must match.
func TestSchedulerFullSearchAgreement(t *testing.T) {
	d := schedulerDataset(t)
	ps := core.DistinctTuples(d)
	type algo struct {
		name string
		run  func(opts Options) (*Result, error)
	}
	algos := []algo{
		{"topdown", func(o Options) (*Result, error) { return TopDown(d, ps, o) }},
		{"naive", func(o Options) (*Result, error) { return Naive(d, ps, o) }},
	}
	for _, bound := range []int{20, 100} {
		for _, a := range algos {
			want, err := a.run(Options{Bound: bound, FastEval: true, Workers: 1, DisableRefine: true, DenseLimit: -1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.run(Options{Bound: bound, FastEval: true, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got.Attrs != want.Attrs || got.Size != want.Size || got.MaxErr != want.MaxErr {
				t.Errorf("%s bound=%d: scheduler chose (%v, %d, %v), scan path (%v, %d, %v)",
					a.name, bound, got.Attrs, got.Size, got.MaxErr, want.Attrs, want.Size, want.MaxErr)
			}
			if got.Stats.SizeComputed != want.Stats.SizeComputed || got.Stats.InBound != want.Stats.InBound {
				t.Errorf("%s bound=%d: counters %d/%d, scan path %d/%d", a.name, bound,
					got.Stats.SizeComputed, got.Stats.InBound, want.Stats.SizeComputed, want.Stats.InBound)
			}
		}
	}
}
