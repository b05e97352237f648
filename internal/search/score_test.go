package search

// Coverage of the evaluation phase's row index and scorer: a scorer's
// estimates equal its label's bit for bit, whether it answers from the
// index or has switched to the label, and whole searches return the same
// result with the proofs and the index each switched on or off.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// emulators returns the three paper emulators at a few thousand rows.
func emulators(t *testing.T, rows int) []*dataset.Dataset {
	t.Helper()
	var out []*dataset.Dataset
	for _, gen := range []func(int, uint64) (*dataset.Dataset, error){datagen.COMPAS, datagen.CreditCard, datagen.BlueNile} {
		d, err := gen(rows, 5)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// randomSubset draws a nonempty subset of {0..n-1} of at most k members.
func randomSubset(rng *rand.Rand, n, k int) lattice.AttrSet {
	var s lattice.AttrSet
	for want := 1 + rng.IntN(k); s.Size() < want; {
		s = s.Add(rng.IntN(n))
	}
	return s
}

// containers counts the index's row-id lists and bitmaps.
func (ix *rowIndex) containers() (lists, bitmaps int) {
	for _, sets := range ix.sets {
		for _, st := range sets {
			switch {
			case st.bits != nil:
				bitmaps++
			case st.ids != nil:
				lists++
			}
		}
	}
	return lists, bitmaps
}

func TestScorerMatchesLabel(t *testing.T) {
	datasets := append(nullTables(t), emulators(t, 3000)...)
	var lists, bitmaps, nullProbes int
	var inter [3]int // probes whose S ∩ Attr(p) is empty, a part of S, all of S
	for di, d := range datasets {
		n := d.NumAttrs()
		ix := newRowIndex(d, Options{})
		l, b := ix.containers()
		lists, bitmaps = lists+l, bitmaps+b
		rng := rand.New(rand.NewPCG(uint64(di), 0x5C0E))

		// Probes: every full tuple of P_A, and patterns of 1–4 attributes
		// read from random rows (NULL values included) or drawn at random.
		type probe struct {
			vals  []uint16
			attrs lattice.AttrSet
		}
		var probes []probe
		ps := core.DistinctTuples(d)
		for i := 0; i < ps.Len(); i++ {
			probes = append(probes, probe{ps.Row(i), ps.Attrs(i)})
		}
		for i := 0; i < 400; i++ {
			attrs := randomSubset(rng, n, 4)
			vals := d.Row(rng.IntN(d.NumRows()))
			if i%2 == 1 {
				for a := range vals {
					vals[a] = uint16(rng.IntN(d.Attr(a).DomainSize() + 1))
				}
			}
			for _, a := range attrs.Members() {
				if vals[a] == dataset.Null {
					nullProbes++
				}
			}
			probes = append(probes, probe{vals, attrs})
		}

		sets := []lattice.AttrSet{lattice.NewAttrSet(rng.IntN(n)), lattice.FullSet(n)}
		for len(sets) < 8 {
			sets = append(sets, randomSubset(rng, n, n))
		}
		for _, s := range sets {
			label := must(core.BuildLabel(d, s, core.CountOptions{Workers: 1}))
			for _, limit := range []int64{0, math.MaxInt64} {
				sc := newScorer(ix, d, s, limit, core.CountOptions{Workers: 1})
				for _, p := range probes {
					want := label.EstimateRow(p.vals, p.attrs)
					if got := sc.EstimateRow(p.vals, p.attrs); got != want {
						t.Fatalf("%s S=%v limit=%d: pattern %v over %v estimated %v, label %v",
							d.Name(), s, limit, p.vals, p.attrs, got, want)
					}
					if limit > 0 {
						switch in := p.attrs.Intersect(s); {
						case in.IsEmpty():
							inter[0]++
						case in == s:
							inter[2]++
						default:
							inter[1]++
						}
					}
				}
				if switched := sc.label.Load() != nil; switched != (limit == 0) {
					t.Fatalf("%s S=%v limit=%d: switched=%v", d.Name(), s, limit, switched)
				}
			}
		}
	}
	if lists == 0 || bitmaps == 0 {
		t.Fatalf("index holds %d lists and %d bitmaps, want both kinds", lists, bitmaps)
	}
	if inter[0] == 0 || inter[1] == 0 || inter[2] == 0 || nullProbes == 0 {
		t.Fatalf("probes: %v with Attr(p) ∩ S empty/partial/whole, %d NULL values; want every case", inter, nullProbes)
	}
}

// TestScorerConcurrent shares one scorer among goroutines while it
// switches to its label mid-way: every estimate still equals the label's,
// and the label is built once.
func TestScorerConcurrent(t *testing.T) {
	d := emulators(t, 3000)[0]
	ps := core.DistinctTuples(d)
	s := lattice.NewAttrSet(0, 3, 5, 9)
	label := must(core.BuildLabel(d, s, core.CountOptions{Workers: 1}))
	sc := newScorer(newRowIndex(d, Options{}), d, s, int64(8*d.NumRows()), core.CountOptions{Workers: 1})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ps.Len(); i++ {
				if got, want := sc.EstimateRow(ps.Row(i), ps.Attrs(i)), label.EstimateRow(ps.Row(i), ps.Attrs(i)); got != want {
					t.Errorf("pattern %d estimated %v, label %v", i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if sc.label.Load() == nil || sc.failed() != nil {
		t.Fatalf("scorer did not switch: label %v, err %v", sc.label.Load(), sc.failed())
	}
}

// TestIndexBudget: the index counts against MemBudget, and a search whose
// budget it does not fit scores every candidate from its own label.
func TestIndexBudget(t *testing.T) {
	d := emulators(t, 3000)[0]
	size := indexBytes(d)
	if newRowIndex(d, Options{CountOptions: core.CountOptions{MemBudget: size}}) == nil {
		t.Fatalf("an index of %d bytes does not fit a budget of as many", size)
	}
	if newRowIndex(d, Options{CountOptions: core.CountOptions{MemBudget: size - 1}}) != nil {
		t.Fatalf("an index of %d bytes fits a budget of %d", size, size-1)
	}
}

// TestScorerSwitchCancelled: a scorer whose switch to its label is
// cancelled answers 0 from then on and reports the typed error, which
// the search surfaces.
func TestScorerSwitchCancelled(t *testing.T) {
	d := nullTables(t)[0]
	ix := newRowIndex(d, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := newScorer(ix, d, lattice.NewAttrSet(0, 1), 0, core.CountOptions{Workers: 1, Ctx: ctx})
	if est := sc.EstimateRow(d.Row(0), lattice.NewAttrSet(0, 1, 2)); est != 0 {
		t.Fatalf("cancelled scorer estimated %v, want 0", est)
	}
	if err := sc.failed(); !errors.Is(err, context.Canceled) || sc.label.Load() != nil {
		t.Fatalf("cancelled switch: err = %v, label = %v; want context.Canceled and no label", err, sc.label.Load())
	}
}

// TestProofsAndIndexDifferential runs TopDown and Naive with the proofs
// and the row index each on and off (through the test hooks), under a
// MemBudget the index does not fit, and with the scorer's switch forced
// at zero and never firing. Every run must return the result of the
// search with neither — the mechanism of Algorithm 1 as the paper states
// it — at every worker count and FastEval setting, PatternsScanned
// included: each candidate's scan depends on no other's.
func TestProofsAndIndexDifferential(t *testing.T) {
	type workload struct {
		d     *dataset.Dataset
		bound int
	}
	var loads []workload
	for _, d := range nullTables(t) {
		loads = append(loads, workload{d, 5}, workload{d, 60})
	}
	for _, d := range emulators(t, 2000) {
		// Naive examines every set of a level: keep its lattice small.
		p, err := d.Prefix(min(d.NumAttrs(), 9))
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, workload{p, 50})
	}
	algos := map[string]func(*dataset.Dataset, *core.PatternSet, Options) (*Result, error){"topdown": TopDown, "naive": Naive}
	var proved, indexScored int // default runs: sets proved, and runs scoring a candidate through the index
	for _, w := range loads {
		d := w.d
		ps := core.DistinctTuples(d)
		budget := indexBytes(d) - 1
		variants := []struct {
			name string
			set  func(*Options)
		}{
			{"default", func(*Options) {}},
			{"noProofs", func(o *Options) { o.noProofs = true }},
			{"noIndex", func(o *Options) { o.noIndex = true }},
			{"switchAtZero", func(o *Options) { o.switchAt = -1 }},
			{"switchNever", func(o *Options) { o.switchAt = math.MaxInt64 }},
			{"budget", func(o *Options) { o.MemBudget, o.SpillDir = budget, t.TempDir() }},
		}
		for name, algo := range algos {
			for _, workers := range []int{1, 2, 8} {
				for _, fast := range []bool{false, true} {
					base := Options{Bound: w.bound, FastEval: fast, CountOptions: core.CountOptions{Workers: workers}}
					ref := base
					ref.noProofs, ref.noIndex = true, true
					want, err := algo(d, ps, ref)
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range variants {
						o := base
						v.set(&o)
						got, err := algo(d, ps, o)
						if err != nil {
							t.Fatal(err)
						}
						tag := fmt.Sprintf("%s bound=%d %s workers=%d fast=%v %s", d.Name(), w.bound, name, workers, fast, v.name)
						sameResult(t, tag, want, got)
						if got.Stats.PatternsScanned != want.Stats.PatternsScanned {
							t.Errorf("%s: PatternsScanned %d, reference %d", tag, got.Stats.PatternsScanned, want.Stats.PatternsScanned)
						}
						switch st := got.Stats; v.name {
						case "default":
							proved += st.Proved
							if st.LabelsBuilt < st.Evaluated {
								indexScored++
							}
						case "budget", "noIndex", "switchAtZero":
							if st.LabelsBuilt != st.Evaluated {
								t.Errorf("%s: %d labels built for %d candidates, want one each", tag, st.LabelsBuilt, st.Evaluated)
							}
						}
						got.Label.ReleaseSpill()
					}
					want.Label.ReleaseSpill()
				}
			}
		}
	}
	if proved == 0 || indexScored == 0 {
		t.Fatalf("default runs proved %d sets and scored through the index in %d runs; want both", proved, indexScored)
	}
}

// TestIndexScoresRestrictedWorkloadWithoutFastEval pins why a scorer
// starts from the row index even when its scan cannot stop early: over a
// restricted workload (P_S of two COMPAS attributes, 8 patterns) a
// FastEval-off search scores every candidate through the index and builds
// only the winner's label, where starting every scorer from its label
// builds one a candidate, for the same result.
func TestIndexScoresRestrictedWorkloadWithoutFastEval(t *testing.T) {
	d, err := datagen.COMPAS(20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := core.PatternsOver(d, lattice.NewAttrSet(0, 1), core.CountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Bound: 100, CountOptions: core.CountOptions{Workers: 2}}
	got, err := TopDown(d, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.noIndex = true
	want, err := TopDown(d, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Evaluated < 2 || got.Stats.LabelsBuilt != 1 {
		t.Fatalf("%d patterns: %d labels built for %d candidates, want 1 of at least 2", ps.Len(), got.Stats.LabelsBuilt, got.Stats.Evaluated)
	}
	if want.Stats.LabelsBuilt != want.Stats.Evaluated {
		t.Fatalf("noIndex: %d labels built for %d candidates, want one each", want.Stats.LabelsBuilt, want.Stats.Evaluated)
	}
	sameResult(t, "index against noIndex", want, got)
}
