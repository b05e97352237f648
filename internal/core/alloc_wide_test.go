//go:build !race

package core

// The race detector's instrumentation turns off the compiler's no-copy
// m[string(b)] lookup, so a record tally allocates on every lookup under
// -race: this pin holds for uninstrumented builds only.

import (
	"testing"

	"pcbl/internal/lattice"
)

// TestAllocsWideBuildFlatInRows: a BuildPC of keys wider than one word
// counts in a record tally that allocates once per distinct key, so over
// rows cycling through 100 tuples it allocates no more at 20,000 rows than
// at 2,000 — in memory, and on the spill tier at a budget that splits
// either row count into the same four partition runs.
func TestAllocsWideBuildFlatInRows(t *testing.T) {
	allocs := func(rows int, spilled bool) float64 {
		d := diffDataset(t, diffConfig{rows: rows, attrs: 30, domain: 5, cycle: 100}, 0x5A)
		full := lattice.FullSet(d.NumAttrs())
		k := NewKeyer(d, full)
		if k.Words() != 2 {
			t.Fatalf("30 attributes of 5 values key %d words, want 2", k.Words())
		}
		var stats ScanStats
		opts := CountOptions{Workers: 1, Stats: &stats, SpillDir: t.TempDir()}
		if spilled {
			opts.MemBudget = int64(rows) * k.entryBytes() / 4
		}
		pc := must(BuildPC(d, full, opts))
		if pc.Size() != 100 || (stats.Spilled == 1) != spilled || (spilled && stats.SpillRuns != 4) {
			t.Fatalf("%d rows: %d patterns, %d spilled scans over %d runs; want 100 patterns, spilled %v over 4 runs",
				rows, pc.Size(), stats.Spilled, stats.SpillRuns, spilled)
		}
		return testing.AllocsPerRun(5, func() { must(BuildPC(d, full, opts)) })
	}
	for _, spilled := range []bool{false, true} {
		small, large := allocs(2000, spilled), allocs(20000, spilled)
		if large > small {
			t.Errorf("spilled=%v: a two-word build allocates %.0f times over 20,000 rows, %.0f over 2,000", spilled, large, small)
		}
	}
}
