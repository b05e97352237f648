package search

// Allocation-regression pin for the level sizer: a steady-state sizeLevel
// round must cost only per-group planning allocations — every slab (child
// accumulators, key scratch) cycles through the level sizer's pool — and a
// level its bounds decide must cost none.

import (
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// allocDataset is a small table whose every candidate set counts on a
// dense slab.
func allocDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	const rows, attrs, domain = 6000, 8, 3
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	bld := dataset.NewBuilder("alloc", names...)
	v := uint64(1442695040888963407)
	row := make([]string, attrs)
	for r := 0; r < rows; r++ {
		for i := range row {
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			row[i] = string(rune('A' + int(v%domain)))
		}
		bld.AppendStrings(row...)
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAllocsSizeLevelSteadyState(t *testing.T) {
	d := allocDataset(t)
	var level []lattice.AttrSet
	lattice.Combinations(d.NumAttrs(), 2, func(s lattice.AttrSet) bool {
		level = append(level, s)
		return true
	})
	groups := make(map[lattice.AttrSet]struct{}) // sibling groups: distinct gen parents
	for _, s := range level {
		groups[s.Remove(s.MaxIndex())] = struct{}{}
	}
	noop := func(lattice.AttrSet, bool) {}

	// Every pair has at most 3 × 3 = 9 ≤ 50 patterns, so the bounds decide
	// the whole level: no scan, and no allocation once the sizer has seen
	// it.
	var proved Stats
	z := newLevelSizer(d, Options{Bound: 50, CountOptions: core.CountOptions{Workers: 1}}, &proved)
	z.sizeLevel(level, noop)
	if proved.Proved != len(level) || proved.RefinedSets != 0 || proved.SizeComputed != len(level) {
		t.Fatalf("bounded level: proved=%d refined=%d examined=%d, want %d proved of %d",
			proved.Proved, proved.RefinedSets, proved.SizeComputed, len(level), len(level))
	}
	if allocs := testing.AllocsPerRun(10, func() { z.sizeLevel(level, noop) }); allocs != 0 {
		t.Fatalf("proved sizeLevel allocs/run = %.0f, want 0", allocs)
	}

	// With the proofs off (the test hook), every set goes to the kernel.
	var stats Stats
	z = newLevelSizer(d, Options{Bound: 50, CountOptions: core.CountOptions{Workers: 1}, noProofs: true}, &stats)
	z.sizeLevel(level, noop) // warm the pool
	if stats.Proved != 0 || stats.RefinedSets != len(level) || stats.Dense != len(level) {
		t.Fatalf("level not sized on dense slabs from parent keys: proved=%d refined=%d dense=%d of %d",
			stats.Proved, stats.RefinedSets, stats.Dense, len(level))
	}
	allocs := testing.AllocsPerRun(10, func() {
		z.sizeLevel(level, noop)
	})
	// Measured 54 for 28 candidates in 7 sibling groups (≈ 8 planning
	// allocs per group, the parent's keyer included); a per-candidate slab
	// would add thousands.
	if limit := float64(40 * len(groups)); allocs > limit {
		t.Fatalf("sizeLevel allocs/run = %.0f, want <= %.0f", allocs, limit)
	}
	_, misses := z.pool.Stats()
	before := misses
	z.sizeLevel(level, noop)
	if _, after := z.pool.Stats(); after != before {
		t.Fatalf("steady-state sizeLevel missed the pool %d times", after-before)
	}
	// The in-memory enumeration workload must never touch the spill tier.
	if stats.Spilled != 0 || stats.SpillRuns != 0 || stats.SpillBytes != 0 {
		t.Fatalf("in-memory sizing workload spilled: Spilled=%d SpillRuns=%d SpillBytes=%d",
			stats.Spilled, stats.SpillRuns, stats.SpillBytes)
	}
}
