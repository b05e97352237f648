package core

// Differential tests for keys of more than one word: 30 attributes of 5
// values (5^30 > 2^63, two words) and 60 (three words), with 5% NULLs,
// against the naive per-row group-by at 1, 2 and 8 workers — builds in
// memory and under budgets that spill (materialized and merge-on-read),
// capped and uncapped sizing, P_A in first-seen order, merges with and
// without a domain growth that moves members between words, and
// marginals.

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// wideConfigs are the two wide shapes and the key width of their full set.
var wideConfigs = []struct {
	cfg   diffConfig
	words int
}{
	{diffConfig{rows: 2000, attrs: 30, domain: 5, nullRate: 0.05}, 2},
	{diffConfig{rows: 2000, attrs: 60, domain: 5, nullRate: 0.05}, 3},
}

// wideSets returns the sets the wide tests probe: the full set, the full
// set less its first attribute, its last 28 attributes (two words) and a
// random half of its attributes.
func wideSets(n int, rng *rand.Rand) []lattice.AttrSet {
	full := lattice.FullSet(n)
	var tail, half lattice.AttrSet
	for a := n - 28; a < n; a++ {
		tail = tail.Add(a)
	}
	for a := 0; a < n; a++ {
		if rng.IntN(2) == 1 {
			half = half.Add(a)
		}
	}
	return []lattice.AttrSet{full, full.Remove(0), tail, half}
}

func TestWideKeysDifferential(t *testing.T) {
	for ci, wc := range wideConfigs {
		t.Run(wc.cfg.name(), func(t *testing.T) {
			d := diffDataset(t, wc.cfg, uint64(ci)+0x3A)
			n := d.NumAttrs()
			if w := NewKeyer(d, lattice.FullSet(n)).Words(); w != wc.words {
				t.Fatalf("full set keys %d words, want %d", w, wc.words)
			}
			sets := wideSets(n, rand.New(rand.NewPCG(uint64(ci), 0x3B)))
			exact := make([]int, len(sets))
			for si, s := range sets {
				ref := refCounts(d, s)
				k := NewKeyer(d, s)
				exact[si] = len(ref)
				for _, workers := range diffWorkerCounts {
					name := fmt.Sprintf("set %v (%d words) workers=%d", s, k.Words(), workers)
					pc := must(BuildPC(d, s, testCountOptions(workers)))
					dumpEqual(t, ref, pc, name)
					if want := map[bool]string{true: "wide", false: "sorted"}[k.Words() > 1]; pcRepr(pc) != want {
						t.Fatalf("%s: repr %s, want %s", name, pcRepr(pc), want)
					}
					// The spill decision models every row a distinct key;
					// the exact result decides whether it materializes.
					for _, spilled := range []bool{false, true} {
						opts := testCountOptions(workers)
						opts.MemBudget = int64(exact[si]) * k.entryBytes()
						if spilled {
							opts.MemBudget = mergeOnReadBudget(d, s)
						}
						opts.SpillDir = t.TempDir()
						var stats ScanStats
						opts.Stats = &stats
						got := must(BuildPC(d, s, opts))
						if stats.Spilled != 1 || got.Spilled() != spilled {
							t.Fatalf("%s budget %d: Spilled=%d, merge-on-read %v, want spilled scan, merge-on-read %v",
								name, opts.MemBudget, stats.Spilled, got.Spilled(), spilled)
						}
						dumpEqual(t, ref, got, name+" budgeted")
						got.ReleaseSpill()
						assertNoSpillFiles(t, opts.SpillDir)
					}
				}
			}
			for _, cap := range []int{-1, 0, 100} {
				for _, workers := range diffWorkerCounts {
					for _, budget := range []int64{0, 64 << 10} {
						opts := testCountOptions(workers)
						opts.MemBudget, opts.SpillDir = budget, t.TempDir()
						var stats ScanStats
						opts.Stats = &stats
						sizes, within := must2(LabelSizes(d, sets, cap, opts))
						for i, s := range sets {
							ws, ww := capSize(exact[i], cap)
							if sizes[i] != ws || within[i] != ww {
								t.Fatalf("LabelSizes cap=%d workers=%d budget=%d set %v: (%d, %v), want (%d, %v)",
									cap, workers, budget, s, sizes[i], within[i], ws, ww)
							}
							if size, in := must2(LabelSize(d, s, cap, opts)); size != ws || in != ww {
								t.Fatalf("LabelSize cap=%d workers=%d budget=%d set %v: (%d, %v), want (%d, %v)",
									cap, workers, budget, s, size, in, ws, ww)
							}
						}
						// Uncapped, every set's state models over the budget.
						if wantSpilled := map[bool]int64{true: int64(2 * len(sets))}[cap < 0 && budget > 0]; stats.Spilled != wantSpilled {
							t.Fatalf("cap=%d workers=%d budget=%d: %d sets spilled, want %d", cap, workers, budget, stats.Spilled, wantSpilled)
						}
						assertNoSpillFiles(t, opts.SpillDir)
					}
				}
			}
		})
	}
}

// TestWideDistinctTuples: P_A over wide keys holds the NULL-free tuples
// with their multiplicities, in first-seen order.
func TestWideDistinctTuples(t *testing.T) {
	for ci, wc := range wideConfigs {
		d := diffDataset(t, wc.cfg, uint64(ci)+0x3C)
		n := d.NumAttrs()
		var order []string
		counts := make(map[string]int)
		rows := make(map[string][]uint16)
	rowLoop:
		for r := 0; r < d.NumRows(); r++ {
			row := make([]uint16, n)
			for a := range row {
				if row[a] = d.Col(a)[r]; row[a] == dataset.Null {
					continue rowLoop
				}
			}
			key := fmt.Sprint(row)
			if counts[key] == 0 {
				order = append(order, key)
				rows[key] = row
			}
			counts[key]++
		}
		ps := DistinctTuples(d)
		if ps.Len() != len(order) {
			t.Fatalf("%s: %d patterns, want %d", wc.cfg.name(), ps.Len(), len(order))
		}
		for i, key := range order {
			if got := fmt.Sprint(ps.Row(i)); got != key || ps.Count(i) != counts[key] || ps.Attrs(i) != lattice.FullSet(n) {
				t.Fatalf("%s: pattern %d = %s ×%d, want %s ×%d", wc.cfg.name(), i, got, ps.Count(i), key, counts[key])
			}
		}
	}
}

// wideGrowth splits a wide dataset into a base and a delta whose
// dictionary for attribute 0 grows from domain to domain+2 values, so
// the first word holds one member fewer over the union and every later
// member moves. It returns base, delta and the union.
func wideGrowth(t *testing.T, cfg diffConfig, seed uint64) (base, delta, full *dataset.Dataset) {
	t.Helper()
	whole := diffDataset(t, cfg, seed)
	cut := cfg.rows - cfg.rows/8
	var err error
	if base, err = whole.Slice(0, cut); err != nil {
		t.Fatal(err)
	}
	db := dataset.NewBuilderFrom(base, "delta")
	fb := dataset.NewBuilderFrom(base, "full")
	for _, b := range []*dataset.Builder{db, fb} {
		for v := cfg.domain; v < cfg.domain+2; v++ {
			if _, err := b.InternValue(0, fmt.Sprintf("v%d", v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < cut; r++ {
		fb.AppendIDs(rowIDs(whole, r)...)
	}
	rng := rand.New(rand.NewPCG(seed, 0x6B))
	for r := cut; r < cfg.rows; r++ {
		ids := rowIDs(whole, r)
		if ids[0] != dataset.Null && rng.IntN(3) == 0 {
			ids[0] = uint16(cfg.domain + 1 + rng.IntN(2))
		}
		db.AppendIDs(ids...)
		fb.AppendIDs(ids...)
	}
	if delta, err = db.Build(); err != nil {
		t.Fatal(err)
	}
	if full, err = fb.Build(); err != nil {
		t.Fatal(err)
	}
	return base, delta, full
}

// rowIDs copies row r's value ids.
func rowIDs(d *dataset.Dataset, r int) []uint16 {
	ids := make([]uint16, d.NumAttrs())
	for a := range ids {
		ids[a] = d.Col(a)[r]
	}
	return ids
}

// TestWideMergeAndMarginalize merges wide labels — in memory and spilled,
// with a stable key layout and with a grown domain that moves members to
// another word — and marginalizes wide PCs, against rebuilds and the
// naive group-by.
func TestWideMergeAndMarginalize(t *testing.T) {
	for ci, wc := range wideConfigs {
		t.Run(wc.cfg.name(), func(t *testing.T) {
			n := wc.cfg.attrs
			full := lattice.FullSet(n)
			grownBase, grownDelta, grownFull := wideGrowth(t, wc.cfg, uint64(ci)+0x3D)
			moved := false
			bk, uk := NewKeyer(grownBase, full), NewKeyer(grownFull, full)
			for j := range bk.word {
				moved = moved || bk.word[j] != uk.word[j]
			}
			if !moved {
				t.Fatal("test shape broken: the grown domain moves no member to another word")
			}
			d := diffDataset(t, wc.cfg, uint64(ci)+0x3E)
			stableBase, stableDelta := splitDataset(t, d, wc.cfg.rows-wc.cfg.rows/8)
			for _, tc := range []struct {
				name              string
				base, delta, full *dataset.Dataset
			}{{"stable", stableBase, stableDelta, d}, {"grown", grownBase, grownDelta, grownFull}} {
				want := must(BuildLabel(tc.full, full, CountOptions{}))
				budget := mergeOnReadBudget(tc.base, full)
				for _, workers := range diffWorkerCounts {
					for _, spilled := range []bool{false, true} {
						opts := testCountOptions(workers)
						if spilled {
							opts.MemBudget, opts.SpillDir = budget, t.TempDir()
						}
						bl := must(BuildLabel(tc.base, full, opts))
						if bl.PC().Spilled() != spilled {
							t.Fatalf("%s workers=%d: base merge-on-read %v, want %v", tc.name, workers, bl.PC().Spilled(), spilled)
						}
						dl := must(BuildLabel(tc.delta, full, testCountOptions(workers)))
						if _, _, err := bl.Merge(dl, -1); err != nil {
							t.Fatalf("%s workers=%d spilled=%v: %v", tc.name, workers, spilled, err)
						}
						labelEqualMerged(t, want, bl)
						bl.ReleaseSpill()
					}
				}
			}

			// Marginals of an in-memory and of a spilled wide parent
			// count the rows keyed over the whole parent.
			parents := []*PC{must(BuildPC(d, full, CountOptions{}))}
			opts := CountOptions{MemBudget: mergeOnReadBudget(d, full), SpillDir: t.TempDir()}
			parents = append(parents, must(BuildPC(d, full, opts)))
			defer parents[1].ReleaseSpill()
			if !parents[1].Spilled() {
				t.Fatal("budgeted parent is not merge-on-read")
			}
			parentRef := refCounts(d, full)
			for _, sub := range wideSets(n, rand.New(rand.NewPCG(uint64(ci), 0x3F)))[1:] {
				ref := make(map[string]int)
				for key, c := range parentRef {
					ref[project(key, sub)] += c
				}
				for i, parent := range parents {
					dumpEqual(t, ref, must(parent.MarginalizeCtx(nil, d, sub)), fmt.Sprintf("parent %d marginal %v", i, sub))
				}
			}
		})
	}
}

// mergeOnReadBudget is a budget half s's exact result cost, so a build of
// s stays merge-on-read.
func mergeOnReadBudget(d *dataset.Dataset, s lattice.AttrSet) int64 {
	return int64(len(refCounts(d, s))) * NewKeyer(d, s).entryBytes() / 2
}

// project keeps the members of sub of a refCounts pattern key.
func project(key string, sub lattice.AttrSet) string {
	var out strings.Builder
	for _, part := range strings.SplitAfter(key, ";") {
		var a, v int
		if _, err := fmt.Sscanf(part, "%d=%d;", &a, &v); err == nil && sub.Has(a) {
			out.WriteString(part)
		}
	}
	return out.String()
}
