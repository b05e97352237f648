package search

// Integration of the external-memory spill tier with the enumeration
// phase: under Options.MemBudget, candidates beyond the dense tier are
// sized through on-disk spill runs with results identical to the
// unbudgeted run, and run files are cleaned up.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"testing"

	"pcbl/internal/dataset"
)

// spillSearchDataset builds a 4-attribute dataset whose full-set key
// overflows uint64 (65000^4 > 2^63), so the level-4 candidate takes the
// byte-string fallback, while pairs and triples stay uint64-keyable (and,
// being beyond the dense tier, spill with uint64 records under a budget).
func spillSearchDataset(t *testing.T, rows int) *dataset.Dataset {
	t.Helper()
	const attrs, domain = 4, 65000
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	bld := dataset.NewBuilder("spillsearch", names...)
	for a := 0; a < attrs; a++ {
		for v := 0; v < domain; v++ {
			if _, err := bld.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewPCG(0x5EA1C4, 0xD15C))
	ids := make([]uint16, attrs)
	for r := 0; r < rows; r++ {
		for a := range ids {
			// Low-cardinality draws keep label sizes well under the bound
			// so the search reaches the byte-key full set.
			ids[a] = uint16(1 + rng.IntN(domain/100))
		}
		bld.AppendIDs(ids...)
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSearchSpillIdentity(t *testing.T) {
	d := spillSearchDataset(t, 3000)
	const bound = 4000
	// Unbudgeted baseline: every candidate in memory, the full set on
	// byte keys and every other set from its parent's key block.
	base, baseStats, err := Enumerate(d, Options{Bound: bound, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if baseStats.Spilled != 0 || baseStats.Bytes != 1 || baseStats.RefinedSets != baseStats.SizeComputed-1 {
		t.Fatalf("unbudgeted run: Spilled=%d Bytes=%d RefinedSets=%d of %d sets",
			baseStats.Spilled, baseStats.Bytes, baseStats.RefinedSets, baseStats.SizeComputed)
	}
	// Budget small enough that every set's map estimate exceeds it: every
	// candidate must be sized through spill runs.
	budget := int64(50 << 10)
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		got, stats, err := Enumerate(d, Options{
			Bound: bound, Workers: workers,
			MemBudget: budget, SpillDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: candidate %d = %v, want %v", workers, i, got[i], base[i])
			}
		}
		if stats.Spilled != int64(stats.SizeComputed) || stats.RefinedSets != 0 || stats.SpillRuns < 4 {
			t.Fatalf("workers=%d: Spilled=%d RefinedSets=%d of %d sets, SpillRuns=%d; want every set spilled, >=4 runs",
				workers, stats.Spilled, stats.RefinedSets, stats.SizeComputed, stats.SpillRuns)
		}
		if stats.SpillBytes == 0 {
			t.Fatalf("workers=%d: spill reported zero bytes written", workers)
		}
		// Per-format split: under this budget the uint64-keyable pairs and
		// triples spill with uint64 records while the full set spills byte
		// records — both formats must be represented and counted apart.
		if stats.SpilledU64 == 0 || stats.SpilledU64 >= stats.Spilled {
			t.Fatalf("workers=%d: SpilledU64=%d of Spilled=%d, want both formats present",
				workers, stats.SpilledU64, stats.Spilled)
		}
		// At 3000 rows the engine's per-worker row floor resolves every
		// scan to one effective worker, so run counting stays sequential
		// regardless of the requested workers (the parallel case is pinned
		// by TestSearchSpillParallelRuns on a larger dataset).
		if stats.SpillParallelRuns != 0 {
			t.Fatalf("workers=%d: SpillParallelRuns = %d on a sub-floor dataset, want 0", workers, stats.SpillParallelRuns)
		}
		// Levels with several spilled candidates partition them all in
		// one shared dataset pass; the saved scans are metered.
		if stats.SharedSpillPasses == 0 || stats.SpillPassesSaved == 0 {
			t.Fatalf("workers=%d: SharedSpillPasses=%d SpillPassesSaved=%d, want shared partitioning",
				workers, stats.SharedSpillPasses, stats.SpillPassesSaved)
		}
		if stats.SharedSpillPasses+stats.SpillPassesSaved > stats.Spilled {
			t.Fatalf("workers=%d: pass accounting inconsistent: %d passes + %d saved > %d spilled sets",
				workers, stats.SharedSpillPasses, stats.SpillPassesSaved, stats.Spilled)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("workers=%d: %d spill entries left behind", workers, len(ents))
		}
	}
}

// TestSearchSpillParallelRuns pins the K-way parallel count phase through
// the search path: on a dataset large enough to clear the per-worker row
// floor, a multi-worker budgeted enumeration counts its spill runs in
// parallel (and still reproduces the single-worker candidates exactly).
func TestSearchSpillParallelRuns(t *testing.T) {
	d := spillSearchDataset(t, 20000)
	const bound = 25000
	budget := int64(200 << 10)
	base, baseStats, err := Enumerate(d, Options{
		Bound: bound, Workers: 1,
		MemBudget: budget, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if baseStats.Spilled == 0 || baseStats.SpillParallelRuns != 0 {
		t.Fatalf("workers=1 baseline: Spilled=%d SpillParallelRuns=%d, want spills counted sequentially",
			baseStats.Spilled, baseStats.SpillParallelRuns)
	}
	dir := t.TempDir()
	got, stats, err := Enumerate(d, Options{
		Bound: bound, Workers: 8,
		MemBudget: budget, SpillDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(base) {
		t.Fatalf("workers=8: %d candidates, want %d", len(got), len(base))
	}
	for i := range got {
		if got[i] != base[i] {
			t.Fatalf("workers=8: candidate %d = %v, want %v", i, got[i], base[i])
		}
	}
	if stats.Spilled == 0 || stats.SpillParallelRuns == 0 {
		t.Fatalf("workers=8: Spilled=%d SpillParallelRuns=%d, want parallel-counted spills",
			stats.Spilled, stats.SpillParallelRuns)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill entries left behind", len(ents))
	}
}
