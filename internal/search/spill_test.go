package search

// Integration of the external-memory spill tier with the enumeration
// phase: under Options.MemBudget, candidates beyond the dense tier whose
// capped sizing state is over budget are sized through spilled builds,
// with results identical to the unbudgeted run, and run files are cleaned
// up; candidates whose cap+1 keys fit the budget never spill.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// spillSearchDataset builds a 4-attribute dataset whose full-set key
// passes one word (65000^4 > 2^63), so the level-4 candidate keys two
// words, while pairs and triples key one (and, being beyond the dense
// tier, spill 8-byte records under a budget).
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
			// so the search reaches the full set, whose key is two words.
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
	// two-word keys and every other set from its parent's key block.
	base, baseStats, err := Enumerate(d, Options{Bound: bound, CountOptions: core.CountOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if baseStats.Spilled != 0 || baseStats.Wide != 1 || baseStats.RefinedSets != baseStats.SizeComputed-1 {
		t.Fatalf("unbudgeted run: Spilled=%d Wide=%d RefinedSets=%d of %d sets",
			baseStats.Spilled, baseStats.Wide, baseStats.RefinedSets, baseStats.SizeComputed)
	}
	// Both key widths spill below: the one-word pairs and triples, and the
	// two-word full set.
	if w := core.NewKeyer(d, lattice.FullSet(d.NumAttrs())).Words(); w != 2 {
		t.Fatalf("full set keys %d words, want 2", w)
	}
	// Budget small enough that every set's map estimate exceeds it even at
	// the cap (bound + 1 keys, more than the rows): every candidate must be
	// sized on the spill tier.
	budget := int64(50 << 10)
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		got, stats, err := Enumerate(d, Options{
			Bound:        bound,
			CountOptions: core.CountOptions{Workers: workers, MemBudget: budget, SpillDir: dir},
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
		// At 3000 rows the engine's per-worker row floor resolves every
		// scan to one effective worker, so run counting stays sequential
		// regardless of the requested workers (the parallel case is pinned
		// by TestSearchSpillParallelRuns on a larger dataset).
		if stats.SpillParallelRuns != 0 {
			t.Fatalf("workers=%d: SpillParallelRuns = %d on a sub-floor dataset, want 0", workers, stats.SpillParallelRuns)
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
		Bound:        bound,
		CountOptions: core.CountOptions{Workers: 1, MemBudget: budget, SpillDir: t.TempDir()},
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
		Bound:        bound,
		CountOptions: core.CountOptions{Workers: 8, MemBudget: budget, SpillDir: dir},
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

// correlatedDataset builds rows over 8 attributes of domain 30, each a
// fixed function of one hidden 40-value variable per row: no attribute set
// has more than 40 patterns, while sets of four or more attributes have
// key spaces beyond the dense tier.
func correlatedDataset(t *testing.T, rows int) *dataset.Dataset {
	t.Helper()
	const attrs, domain, hidden = 8, 30, 40
	rng := rand.New(rand.NewPCG(0xC022, 0x40))
	names := make([]string, attrs)
	f := make([][]uint16, attrs) // f[a][h]: attribute a's value id for hidden value h
	for a := range f {
		names[a] = fmt.Sprintf("a%d", a)
		f[a] = make([]uint16, hidden)
		for h := range f[a] {
			f[a][h] = uint16(1 + rng.IntN(domain))
		}
	}
	bld := dataset.NewBuilder("correlated", names...)
	for a := 0; a < attrs; a++ {
		for v := 0; v < domain; v++ {
			if _, err := bld.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ids := make([]uint16, attrs)
	for r := 0; r < rows; r++ {
		h := rng.IntN(hidden)
		for a := range ids {
			ids[a] = f[a][h]
		}
		bld.AppendIDs(ids...)
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCappedSizingNeverSpills: a search sizes every candidate with cap
// B_s, so its accumulators never hold more than B_s + 1 keys. On
// correlated data whose map-tier sets model far over the budget by their
// row count, a budget that fits B_s + 1 keys must spill nothing, and the
// enumeration must match the unbudgeted one at every worker count.
func TestCappedSizingNeverSpills(t *testing.T) {
	d := correlatedDataset(t, 20000)
	const bound = 100
	budget := int64(256 << 10)
	// The budget binds an uncapped build: the full set's 20,000-row map
	// model is 1.1 MB.
	var build core.ScanStats
	pc, err := core.BuildPC(d, lattice.FullSet(d.NumAttrs()), core.CountOptions{
		Workers: 1, MemBudget: budget, SpillDir: t.TempDir(), Stats: &build,
	})
	if err != nil {
		t.Fatal(err)
	}
	pc.ReleaseSpill()
	if build.Spilled != 1 {
		t.Fatalf("uncapped budgeted build: Spilled=%d, want 1", build.Spilled)
	}
	for _, workers := range []int{1, 2, 8} {
		base, baseStats, err := Enumerate(d, Options{Bound: bound, CountOptions: core.CountOptions{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		if baseStats.Map == 0 {
			t.Fatalf("workers=%d: no map-tier set sized; the data does not exercise the budget", workers)
		}
		dir := t.TempDir()
		got, stats, err := Enumerate(d, Options{Bound: bound, CountOptions: core.CountOptions{Workers: workers, MemBudget: budget, SpillDir: dir}})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Spilled != 0 || stats.SpillBytes != 0 {
			t.Fatalf("workers=%d: Spilled=%d SpillBytes=%d, want no spill", workers, stats.Spilled, stats.SpillBytes)
		}
		if stats.SizeComputed != baseStats.SizeComputed || stats.InBound != baseStats.InBound {
			t.Fatalf("workers=%d: SizeComputed/InBound %d/%d, unbudgeted %d/%d",
				workers, stats.SizeComputed, stats.InBound, baseStats.SizeComputed, baseStats.InBound)
		}
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d candidates, unbudgeted %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: candidate %d = %v, unbudgeted %v", workers, i, got[i], base[i])
			}
		}
	}
}
