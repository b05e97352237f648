package search

// Concurrency coverage for the search pipeline: run these under
// `go test -race` to exercise the shared work pool in both phases — the
// concurrent sibling groups and row shards of the enumeration phase and
// the concurrent candidate evaluation of the final phase — and to prove
// the parallel runs return exactly the sequential result.

import (
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// raceDataset is large enough (≥ 2 × the engine's per-worker row minimum)
// that Workers > 1 actually shards the enumeration scans instead of
// falling back to the sequential path.
func raceDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := datagen.BlueNile(6000, 13)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Prefix(6)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameResult asserts two search results agree on everything deterministic:
// the chosen set, its label size and error, and the enumeration counters.
// (Timings differ by construction.)
func sameResult(t *testing.T, name string, seq, par *Result) {
	t.Helper()
	if par.Attrs != seq.Attrs {
		t.Errorf("%s: attrs %v, sequential chose %v", name, par.Attrs, seq.Attrs)
	}
	if par.Size != seq.Size {
		t.Errorf("%s: size %d, sequential %d", name, par.Size, seq.Size)
	}
	if par.MaxErr != seq.MaxErr {
		t.Errorf("%s: maxErr %v, sequential %v", name, par.MaxErr, seq.MaxErr)
	}
	if par.Stats.SizeComputed != seq.Stats.SizeComputed {
		t.Errorf("%s: SizeComputed %d, sequential %d", name, par.Stats.SizeComputed, seq.Stats.SizeComputed)
	}
	if par.Stats.InBound != seq.Stats.InBound {
		t.Errorf("%s: InBound %d, sequential %d", name, par.Stats.InBound, seq.Stats.InBound)
	}
	if par.Stats.Evaluated != seq.Stats.Evaluated {
		t.Errorf("%s: Evaluated %d, sequential %d", name, par.Stats.Evaluated, seq.Stats.Evaluated)
	}
}

func TestParallelSearchMatchesSequential(t *testing.T) {
	d := raceDataset(t)
	ps := core.DistinctTuples(d)
	for _, bound := range []int{20, 100} {
		seqTop, err := TopDown(d, ps, Options{Bound: bound, FastEval: true, CountOptions: core.CountOptions{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		seqNaive, err := Naive(d, ps, Options{Bound: bound, FastEval: true, CountOptions: core.CountOptions{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			parTop, err := TopDown(d, ps, Options{Bound: bound, FastEval: true, CountOptions: core.CountOptions{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "topdown", seqTop, parTop)
			parNaive, err := Naive(d, ps, Options{Bound: bound, FastEval: true, CountOptions: core.CountOptions{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "naive", seqNaive, parNaive)
		}
	}
}

// TestFusedFrontierMatchesPerSetScan pins the enumeration at the search
// level: over the exact frontiers TopDown visits, the level sizer's
// verdicts — proved from known bounds, or from the level's one LabelSizes
// call — must agree with one sequential LabelSize per set, and every
// examined set is either proved or sized by the kernel.
func TestFusedFrontierMatchesPerSetScan(t *testing.T) {
	d := raceDataset(t)
	n := d.NumAttrs()
	bound := 50
	frontier := lattice.AttrSet(0).Gen(n)
	var stats Stats
	z := newLevelSizer(d, Options{Bound: bound, CountOptions: core.CountOptions{Workers: 4}}, &stats)
	for len(frontier) > 0 {
		var children []lattice.AttrSet
		for _, s := range frontier {
			children = append(children, s.Gen(n)...)
		}
		before := stats
		var next []lattice.AttrSet
		i := 0
		err := z.sizeLevel(children, func(s lattice.AttrSet, within bool) {
			if s != children[i] {
				t.Fatalf("visit order diverged at %d: got %v, want %v", i, s, children[i])
			}
			_, want := must2(core.LabelSize(d, s, bound, core.CountOptions{Workers: 1}))
			if within != want {
				t.Fatalf("set %v: level within=%v, sequential %v", s, within, want)
			}
			if within {
				next = append(next, s)
			}
			i++
		})
		if err != nil {
			t.Fatalf("sizeLevel: %v", err)
		}
		examined := stats.SizeComputed - before.SizeComputed
		proved := stats.Proved - before.Proved
		refined := stats.RefinedSets - before.RefinedSets
		if examined != len(children) || proved+refined != examined {
			t.Fatalf("examined %d (%d proved, %d kernel-sized), want %d = proved + kernel-sized",
				examined, proved, refined, len(children))
		}
		frontier = next
	}
	if stats.Proved == 0 || stats.RefinedSets == 0 {
		t.Fatalf("proved %d, kernel-sized %d: want both paths exercised", stats.Proved, stats.RefinedSets)
	}
}
