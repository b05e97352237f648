package core

// Differential coverage for frontiers with several over-budget sets: each
// must size bit-identically to the sequential LabelSize oracle — for every
// worker count, across the cap grid, for two-word and one-word records
// and for frontiers mixing both with in-memory sets. Uncapped, every
// over-budget set is sized through its own budgeted build; capped at 0 or
// 1, no set can reach more than two keys, so none spills.

import (
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// sharedSpillFrontier builds a frontier of attribute sets and the caps to
// sweep from their exact sizes: the unbounded/at-zero edges plus caps
// straddling the smallest and largest frontier sizes.
func sharedSpillCaps(d *dataset.Dataset, sets []lattice.AttrSet) []int {
	minSz, maxSz := int(^uint(0)>>1), 0
	for _, s := range sets {
		sz, _ := labelSize(d, s, -1)
		if sz < minSz {
			minSz = sz
		}
		if sz > maxSz {
			maxSz = sz
		}
	}
	return []int{-1, 0, 1, minSz - 1, minSz, maxSz - 1, maxSz, maxSz + 1}
}

// runSharedSpillDifferential sizes the frontier across the worker and cap
// grids, comparing every result to the sequential oracle and asserting
// the spill accounting. wantSpilled is the number of frontier sets an
// uncapped sizing must route to disk; wantBothWidths asks that they
// include one-word and wider keys.
func runSharedSpillDifferential(t *testing.T, d *dataset.Dataset, sets []lattice.AttrSet, budget int64, wantSpilled int, wantBothWidths bool) {
	t.Helper()
	if wantBothWidths && !spillsBothWidths(d, sets, budget) {
		t.Fatal("test shape broken: the over-budget sets do not span both key widths")
	}
	caps := sharedSpillCaps(d, sets)
	type oracleRes struct {
		size   int
		within bool
	}
	oracle := make(map[int][]oracleRes, len(caps))
	for _, cap := range caps {
		res := make([]oracleRes, len(sets))
		for i, s := range sets {
			sz, w := labelSize(d, s, cap)
			res[i] = oracleRes{sz, w}
		}
		oracle[cap] = res
	}
	for _, workers := range diffWorkerCounts {
		for _, cap := range caps {
			dir := t.TempDir()
			var stats ScanStats
			opts := testCountOptions(workers)
			opts.MemBudget = budget
			opts.SpillDir = dir
			opts.Stats = &stats
			sizes, within := must2(LabelSizes(d, sets, cap, opts))
			for i := range sets {
				want := oracle[cap][i]
				if sizes[i] != want.size || within[i] != want.within {
					t.Fatalf("workers=%d cap=%d set %v: (%d,%v), oracle (%d,%v)",
						workers, cap, sets[i], sizes[i], within[i], want.size, want.within)
				}
			}
			// Uncapped, every over-budget set spills; a cap of 0 or 1 keeps
			// every set at two keys or fewer, so none does; any other cap
			// spills at most the uncapped sets.
			spilledOK := stats.Spilled <= int64(wantSpilled)
			switch {
			case cap < 0:
				spilledOK = stats.Spilled == int64(wantSpilled)
			case cap <= 1:
				spilledOK = stats.Spilled == 0
			}
			if !spilledOK || stats.SpillFallbacks != 0 {
				t.Fatalf("workers=%d cap=%d: Spilled=%d Fallbacks=%d, want %d spilled uncapped",
					workers, cap, stats.Spilled, stats.SpillFallbacks, wantSpilled)
			}
			assertNoSpillFiles(t, dir)
		}
	}
}

// spillsBothWidths reports whether the sets whose uncapped sizing state
// models over budget include one-word and wider keys.
func spillsBothWidths(d *dataset.Dataset, sets []lattice.AttrSet, budget int64) bool {
	var one, wide bool
	for _, s := range sets {
		k := NewKeyer(d, s)
		if fp, ok := (CountOptions{}).mapFootprint(k, d.NumRows(), -1); ok && fp > budget {
			one, wide = one || k.Words() == 1, wide || k.Words() > 1
		}
	}
	return one && wide
}

// TestDifferentialSharedSpillMixedFrontier exercises a frontier mixing
// two-word-record spilled sets (5-subsets and the full set of 6 attributes
// at domain 65000: keys pass one word), one-word-record spilled sets (pairs
// and a singleton: one-word keys, beyond the dense tier, over budget) and
// one in-memory set (the empty set is dense-keyable and joins the fused
// scan) — two record widths and the grouped kernel in one frontier.
func TestDifferentialSharedSpillMixedFrontier(t *testing.T) {
	cfg := diffConfig{rows: 2500, attrs: 6, domain: 65000, nullRate: 0.1}
	d := diffDataset(t, cfg, 0x88)
	full := lattice.FullSet(cfg.attrs)
	sets := []lattice.AttrSet{0, full, lattice.NewAttrSet(0)}
	for i := 0; i < cfg.attrs; i++ {
		sets = append(sets, full.Remove(i))
	}
	sets = append(sets,
		lattice.NewAttrSet(0).Add(1),
		lattice.NewAttrSet(2).Add(3),
		lattice.NewAttrSet(4).Add(5),
	)
	// A third of one 5-subset's modeled footprint: every map-kernel set in
	// the frontier is over budget; only the empty set stays in memory.
	budget := spillBudgetFor(d, full.Remove(0), 3)
	runSharedSpillDifferential(t, d, sets, budget, len(sets)-1, true)
}

// TestDifferentialSharedSpillU64Frontier pins the pure one-word shape:
// every spilled set uses 8-byte records (3-subsets and the full set of 4
// attributes at domain 300 all key one word but exceed the dense tier and
// the budget).
func TestDifferentialSharedSpillU64Frontier(t *testing.T) {
	cfg := diffConfig{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}
	d := diffDataset(t, cfg, 0x89)
	full := lattice.FullSet(cfg.attrs)
	sets := []lattice.AttrSet{full}
	for i := 0; i < cfg.attrs; i++ {
		sets = append(sets, full.Remove(i))
	}
	budget := spillBudgetFor(d, full.Remove(0), 3)
	for _, s := range sets {
		if w := NewKeyer(d, s).Words(); w != 1 {
			t.Fatalf("frontier not pure one-word: set %v keys %d words", s, w)
		}
	}
	runSharedSpillDifferential(t, d, sets, budget, len(sets), false)
}
