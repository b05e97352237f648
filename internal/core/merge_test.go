package core

// Differential tests for incremental label maintenance: a base label plus
// a delta label (counted over only the appended rows) merged with
// Label.Merge must be bit-identical — PC contents, size, VC section, row
// count — to a full rebuild over base+delta rows, for every worker count,
// every storage representation (dense, sorted, byte map, spilled u64,
// spilled bytes), spilled runs in both epochs, and across the key-layout
// shift a delta that grows an attribute domain induces.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// splitDataset cuts d into a base prefix and a delta suffix sharing d's
// dictionaries — the appended-rows shape `pcbl update` sees when no new
// attribute values arrive.
func splitDataset(t *testing.T, d *dataset.Dataset, cut int) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	base, err := d.Slice(0, cut)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := d.Slice(cut, d.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	return base, delta
}

// labelEqualMerged pins a merged label against the full-rebuild oracle on
// everything Merge promises: row count, PC section contents and size, and
// the VC section. Marginals are not compared representation-for-
// representation — a merged label serves them like an artifact-reopened
// label (summed from the PC section) — but NULL-free restriction counts
// must still agree, which TestLabelMergeDifferential checks separately.
func labelEqualMerged(t *testing.T, want, got *Label) {
	t.Helper()
	if want.Rows() != got.Rows() {
		t.Fatalf("rows: oracle %d, merged %d", want.Rows(), got.Rows())
	}
	pcEqualContents(t, want.PC(), got.PC())
	d := want.Dataset()
	for a := 0; a < d.NumAttrs(); a++ {
		for id := 1; id <= d.Attr(a).DomainSize(); id++ {
			if w, g := want.ValueCount(a, uint16(id)), got.ValueCount(a, uint16(id)); w != g {
				t.Fatalf("VC[%d][%d]: oracle %d, merged %d", a, id, w, g)
			}
		}
	}
}

func TestLabelMergeDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9E1, 0))
	for ci, cfg := range diffConfigs {
		if cfg.rows < 2 {
			continue // nothing to split
		}
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+0x91)
			cut := cfg.rows - cfg.rows/10 - 1
			base, delta := splitDataset(t, d, cut)
			for _, s := range diffAttrSets(cfg.attrs, rng) {
				if s.IsEmpty() {
					continue
				}
				for _, workers := range diffWorkerCounts {
					opts := testCountOptions(workers)
					want := must(BuildLabel(d, s, opts))
					bl := must(BuildLabel(base, s, opts))
					dl := must(BuildLabel(delta, s, opts))
					size, within, err := bl.Merge(dl, -1)
					if err != nil {
						t.Fatalf("set %v workers=%d: Merge: %v", s, workers, err)
					}
					if !within {
						t.Fatalf("set %v workers=%d: within=false with bound -1", s, workers)
					}
					if size != want.Size() {
						t.Fatalf("set %v workers=%d: merged size %d, rebuild %d", s, workers, size, want.Size())
					}
					labelEqualMerged(t, want, bl)
					// NULL-free data: restriction counts (served via lazy
					// marginals on the merged label) must agree too.
					if cfg.nullRate == 0 && s.Size() > 1 {
						sub := lattice.NewAttrSet(s.Members()[0])
						wpc, wok := must2(want.MarginalPCCtx(nil, sub))
						gpc, gok := must2(bl.MarginalPCCtx(nil, sub))
						if wok != gok {
							t.Fatalf("set %v: marginal availability differs: oracle %v, merged %v", s, wok, gok)
						}
						if wok {
							pcEqualContents(t, wpc, gpc)
						}
					}
				}
			}
		})
	}
}

// TestLabelMergeRepresentationMatchesRebuild: an in-memory merge lands on
// the representation a rebuild over the union rows picks, not on the
// base's. In the first case the base's 50 rows are too few for a dense
// slab over 40 × 40 key slots, so its PC is sorted, while the union's 150
// rows make that key space dense.
func TestLabelMergeRepresentationMatchesRebuild(t *testing.T) {
	check := func(t *testing.T, d *dataset.Dataset, cut int, s lattice.AttrSet, workers int) (baseRepr string) {
		t.Helper()
		base, delta := splitDataset(t, d, cut)
		opts := testCountOptions(workers)
		want := must(BuildLabel(d, s, opts))
		bl := must(BuildLabel(base, s, opts))
		dl := must(BuildLabel(delta, s, opts))
		baseRepr = pcRepr(bl.PC())
		if _, _, err := bl.Merge(dl, -1); err != nil {
			t.Fatalf("set %v workers=%d: Merge: %v", s, workers, err)
		}
		if w, g := pcRepr(want.PC()), pcRepr(bl.PC()); w != g {
			t.Fatalf("set %v workers=%d: a %s base merged into %s, the rebuild is %s", s, workers, baseRepr, g, w)
		}
		pcEqualContents(t, want.PC(), bl.PC())
		return baseRepr
	}
	t.Run("sparse base, dense union", func(t *testing.T) {
		d := diffDataset(t, diffConfig{rows: 150, attrs: 2, domain: 40}, 0x18)
		for _, workers := range diffWorkerCounts {
			if got := check(t, d, 50, lattice.FullSet(2), workers); got != "sorted" {
				t.Fatalf("workers=%d: the base PC is %s, want sorted; the test shape needs adjusting", workers, got)
			}
		}
	})
	rng := rand.New(rand.NewPCG(0x9E2, 0))
	for ci, cfg := range diffConfigs {
		if cfg.rows < 2 {
			continue
		}
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+0x91)
			for _, s := range diffAttrSets(cfg.attrs, rng) {
				if s.IsEmpty() {
					continue
				}
				for _, workers := range []int{1, 8} {
					check(t, d, cfg.rows-cfg.rows/10-1, s, workers)
				}
			}
		})
	}
}

// TestLabelMergeBound re-verifies the cap semantics at merge time: sizes
// are monotone under appends, so within must be exactly size <= bound.
func TestLabelMergeBound(t *testing.T) {
	cfg := diffConfig{rows: 500, attrs: 4, domain: 6, nullRate: 0.1}
	d := diffDataset(t, cfg, 0xB0)
	base, delta := splitDataset(t, d, 450)
	s := lattice.FullSet(cfg.attrs)
	exact := must(BuildPC(d, s, CountOptions{Workers: 1})).Size()
	for _, bound := range []int{exact - 1, exact, exact + 1} {
		bl := must(BuildLabel(base, s, CountOptions{}))
		dl := must(BuildLabel(delta, s, CountOptions{}))
		size, within, err := bl.Merge(dl, bound)
		if err != nil {
			t.Fatal(err)
		}
		if size != exact {
			t.Fatalf("bound %d: size %d, want %d", bound, size, exact)
		}
		if want := exact <= bound; within != want {
			t.Fatalf("bound %d: within=%v, want %v", bound, within, want)
		}
	}
}

// TestLabelMergeSpilled drives the merge-on-read paths: a budgeted base
// whose PC stays on disk absorbs deltas through the in-place append path
// (the base owns its runs and the layout is stable), across both record
// formats and both outcomes of the footprint re-check (stay spilled vs
// materialize), with the delta itself spilled in the second epoch too.
func TestLabelMergeSpilled(t *testing.T) {
	for ci, cfg := range spillConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+0x93)
			s := spillSet(t, d)
			format := wantFormat(d, s)
			cut := cfg.rows - cfg.rows/8
			base, delta := splitDataset(t, d, cut)
			want := must(BuildLabel(d, s, CountOptions{}))
			entry := format.entryBytes(NewKeyer(d, s))

			for _, spillDelta := range []bool{false, true} {
				// Both outcomes of the merge-time footprint re-check: under
				// the tight build budget the merged size models over it, so
				// the result must stay merge-on-read; "materialize" grants
				// more memory via SetCountOptions before merging, so the
				// re-check passes and the runs are folded into memory.
				tight := spillBudgetFor(base, s, 4)
				roomy := int64(want.Size())*entry + tight
				for _, tc := range []struct {
					name        string
					mergeBudget int64 // 0: keep the build budget
					wantSpilled bool
				}{{"stay-spilled", 0, int64(want.Size())*entry > tight}, {"materialize", roomy, false}} {
					t.Run(fmt.Sprintf("%s_deltaSpilled=%v", tc.name, spillDelta), func(t *testing.T) {
						dir := t.TempDir()
						opts := testCountOptions(2)
						opts.MemBudget = tight
						opts.SpillDir = dir
						bl := must(BuildLabel(base, s, opts))
						if !bl.PC().Spilled() {
							t.Skipf("base did not spill under budget %d", tight)
						}
						if tc.mergeBudget > 0 {
							opts.MemBudget = tc.mergeBudget
							bl.SetCountOptions(opts)
						}
						dopts := testCountOptions(2)
						if spillDelta {
							dopts.MemBudget = spillBudgetFor(delta, s, 2)
							dopts.SpillDir = t.TempDir()
						}
						dl := must(BuildLabel(delta, s, dopts))
						size, _, err := bl.Merge(dl, -1)
						if err != nil {
							t.Fatal(err)
						}
						if size != want.Size() {
							t.Fatalf("merged size %d, rebuild %d", size, want.Size())
						}
						labelEqualMerged(t, want, bl)
						if got := bl.PC().Spilled(); got != tc.wantSpilled {
							t.Fatalf("Spilled() = %v, want %v (size %d, entry %d, tight %d, merge budget %d)",
								got, tc.wantSpilled, size, entry, tight, tc.mergeBudget)
						}
						dl.ReleaseSpill()
						bl.ReleaseSpill()
					})
				}
			}
		})
	}
}

// growthDataset builds a base dataset over narrow dictionaries and a delta
// whose rows extend them — new attribute values appear only in the
// appended rows — plus the union dataset as the rebuild oracle. The
// mixed-radix multipliers differ between the epochs, forcing the re-key
// merge paths.
func growthDataset(t *testing.T, rows, attrs, baseDom, deltaDom, deltaRows int, seed uint64) (base, delta, full *dataset.Dataset) {
	t.Helper()
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	rng := rand.New(rand.NewPCG(seed, 0x6B0))
	bb := dataset.NewBuilder("base", names...)
	for a := 0; a < attrs; a++ {
		for v := 0; v < baseDom; v++ {
			if _, err := bb.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ids := make([]uint16, attrs)
	baseRows := make([][]uint16, rows)
	for r := 0; r < rows; r++ {
		for a := range ids {
			ids[a] = uint16(1 + rng.IntN(baseDom))
		}
		baseRows[r] = append([]uint16(nil), ids...)
		bb.AppendIDs(ids...)
	}
	var err error
	base, err = bb.Build()
	if err != nil {
		t.Fatal(err)
	}

	db := dataset.NewBuilderFrom(base, "delta")
	for a := 0; a < attrs; a++ {
		for v := baseDom; v < deltaDom; v++ {
			if _, err := db.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	deltaRowIDs := make([][]uint16, deltaRows)
	for r := 0; r < deltaRows; r++ {
		for a := range ids {
			ids[a] = uint16(1 + rng.IntN(deltaDom))
		}
		deltaRowIDs[r] = append([]uint16(nil), ids...)
		db.AppendIDs(ids...)
	}
	delta, err = db.Build()
	if err != nil {
		t.Fatal(err)
	}

	fb := dataset.NewBuilder("full", names...)
	for a := 0; a < attrs; a++ {
		for v := 0; v < deltaDom; v++ {
			if _, err := fb.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, row := range baseRows {
		fb.AppendIDs(row...)
	}
	for _, row := range deltaRowIDs {
		fb.AppendIDs(row...)
	}
	full, err = fb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return base, delta, full
}

// TestLabelMergeDomainGrowth exercises the key-layout shift: the delta
// interned new attribute values, so base u64/dense keys are incomparable
// with union keys and the merge must re-key through decoded value ids —
// including a spilled-u64 base whose union key space overflows uint64 and
// lands on byte records.
func TestLabelMergeDomainGrowth(t *testing.T) {
	t.Run("dense-and-maps", func(t *testing.T) {
		base, delta, full := growthDataset(t, 800, 4, 5, 9, 120, 0x71)
		rng := rand.New(rand.NewPCG(0x72, 0))
		for _, s := range diffAttrSets(4, rng) {
			if s.IsEmpty() {
				continue
			}
			want := must(BuildLabel(full, s, CountOptions{}))
			bl := must(BuildLabel(base, s, CountOptions{}))
			dl := must(BuildLabel(delta, s, CountOptions{}))
			if _, _, err := bl.Merge(dl, -1); err != nil {
				t.Fatalf("set %v: %v", s, err)
			}
			labelEqualMerged(t, want, bl)
		}
	})
	t.Run("spilled-u64-overflow", func(t *testing.T) {
		// Base keys fit uint64 (21^6); the delta grows every domain to 2000,
		// overflowing the union key space (2001^6 > 2^64) — the spilled base
		// must rewrite its u64 runs as byte records.
		base, delta, full := growthDataset(t, 1500, 6, 20, 2000, 300, 0x73)
		s := lattice.FullSet(6)
		if !NewKeyer(base, s).Fits() || NewKeyer(full, s).Fits() {
			t.Fatalf("test shape broken: base fits=%v full fits=%v", NewKeyer(base, s).Fits(), NewKeyer(full, s).Fits())
		}
		want := must(BuildLabel(full, s, CountOptions{}))
		opts := testCountOptions(2)
		opts.MemBudget = spillBudgetFor(base, s, 3)
		opts.SpillDir = t.TempDir()
		bl := must(BuildLabel(base, s, opts))
		if !bl.PC().Spilled() {
			t.Skip("base did not spill")
		}
		dl := must(BuildLabel(delta, s, CountOptions{}))
		if _, _, err := bl.Merge(dl, -1); err != nil {
			t.Fatal(err)
		}
		labelEqualMerged(t, want, bl)
		bl.ReleaseSpill()
	})
}

// TestLabelMergeRowsScanned asserts the headline property of incremental
// maintenance: building the delta label reads only the appended rows —
// never the history — while a full rebuild reads everything.
func TestLabelMergeRowsScanned(t *testing.T) {
	cfg := diffConfig{rows: 4000, attrs: 4, domain: 8, nullRate: 0.05}
	d := diffDataset(t, cfg, 0xC4)
	base, delta := splitDataset(t, d, 3960)
	s := lattice.FullSet(cfg.attrs)

	var deltaStats ScanStats
	opts := CountOptions{Stats: &deltaStats}
	dl := must(BuildLabel(delta, s, opts))
	if got, want := deltaStats.RowsScanned, int64(delta.NumRows()); got != want {
		t.Fatalf("delta build scanned %d rows, want %d", got, want)
	}

	var fullStats ScanStats
	must(BuildLabel(d, s, CountOptions{Stats: &fullStats}))
	if got, want := fullStats.RowsScanned, int64(d.NumRows()); got != want {
		t.Fatalf("full rebuild scanned %d rows, want %d", got, want)
	}

	bl := must(BuildLabel(base, s, CountOptions{}))
	if _, _, err := bl.Merge(dl, -1); err != nil {
		t.Fatal(err)
	}
	if bl.Rows() != d.NumRows() {
		t.Fatalf("merged rows %d, want %d", bl.Rows(), d.NumRows())
	}
}

// TestLabelMergeValidation pins the precondition errors: mismatched
// attribute sets and diverging (non-extending) dictionaries are rejected
// before any mutation.
func TestLabelMergeValidation(t *testing.T) {
	cfg := diffConfig{rows: 100, attrs: 3, domain: 4, nullRate: 0}
	d := diffDataset(t, cfg, 0xE1)
	base, delta := splitDataset(t, d, 90)
	bl := must(BuildLabel(base, lattice.FullSet(3), CountOptions{}))

	if _, _, err := bl.Merge(nil, -1); err == nil {
		t.Fatal("nil delta accepted")
	}
	dl := must(BuildLabel(delta, lattice.NewAttrSet(0, 1), CountOptions{}))
	if _, _, err := bl.Merge(dl, -1); err == nil {
		t.Fatal("mismatched attribute sets accepted")
	}
	// A dataset with the same attribute names but its own (diverging)
	// dictionary order must be rejected: ids would not line up.
	other := diffDataset(t, diffConfig{rows: 10, attrs: 3, domain: 2, nullRate: 0}, 0xE2)
	ol := must(BuildLabel(other, lattice.FullSet(3), CountOptions{}))
	bigger := must(BuildLabel(d, lattice.FullSet(3), CountOptions{}))
	if _, _, err := bigger.Merge(ol, -1); err == nil {
		t.Fatal("shrinking domains accepted")
	}
}
