package core

// Skewed and reordered inputs for the spill tier. Hash partitioning
// balances distinct keys, not rows, so one frequent tuple sends most rows
// into one run; the partition writer sums a key within each flush, and a
// run is counted by sorting what its flushes wrote. These tests hold that
// path to the in-memory oracle under a one-tuple skew, and hold its sealed
// runs to the same bytes whatever order the rows arrive in, and hold the
// count within its budget share when a key space far smaller than the
// rows repeats every key in many flushes.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// skewRows draws rows of attrs attributes over domain values in which one
// tuple holds 90% of the rows and the rest are drawn at random, every
// cell NULL with probability nullRate.
func skewRows(rows, attrs, domain int, nullRate float64, seed uint64) [][]uint16 {
	rng := rand.New(rand.NewPCG(seed, 0x5CE3))
	hot := make([]uint16, attrs)
	for a := range hot {
		hot[a] = uint16(1 + rng.IntN(domain))
	}
	out := make([][]uint16, rows)
	for r := range out {
		row := make([]uint16, attrs)
		for a := range row {
			switch {
			case rng.Float64() < nullRate:
				row[a] = dataset.Null
			case r%10 != 0:
				row[a] = hot[a]
			default:
				row[a] = uint16(1 + rng.IntN(domain))
			}
		}
		out[r] = row
	}
	return out
}

// rowsDataset builds a dataset of the given rows over a fixed domain of
// domain values an attribute, in the order order lists them.
func rowsDataset(t *testing.T, rows [][]uint16, domain int, order []int) *dataset.Dataset {
	t.Helper()
	attrs := len(rows[0])
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	bld := dataset.NewBuilder("skew", names...)
	for a := range attrs {
		for v := range domain {
			must(bld.InternValue(a, fmt.Sprintf("v%d", v)))
		}
	}
	for _, r := range order {
		bld.AppendIDs(rows[r]...)
	}
	return must(bld.Build())
}

// sealedRunBytes reads every sorted run file a spilled PC keeps, in run
// order.
func sealedRunBytes(t *testing.T, pc *PC) [][]byte {
	t.Helper()
	sp := pc.Repr().Spill
	if sp == nil {
		t.Fatal("PC is not merge-on-read")
	}
	ents, err := os.ReadDir(sp.Runs.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, e := range ents {
		out = append(out, must(os.ReadFile(filepath.Join(sp.Runs.Dir(), e.Name()))))
	}
	if len(out) != sp.Runs.NumRuns() {
		t.Fatalf("%d run files for %d runs", len(out), sp.Runs.NumRuns())
	}
	return out
}

// TestSpillSkewMatchesInMemory: over rows where one tuple holds 90% of the
// rows (5% NULL cells), a budgeted BuildPC and LabelSize equal the
// unbudgeted ones for one- and two-word keys, at 1, 2 and 8 workers,
// whether the result materializes or stays merge-on-read; and the same
// rows in a seeded permutation give the same PC and the same sealed run
// bytes.
func TestSpillSkewMatchesInMemory(t *testing.T) {
	for _, shape := range []struct {
		domain, words int
	}{
		{300, 1},   // 300^4 fits one word, beyond the dense tier
		{65000, 2}, // 65000^4 passes 63 bits
	} {
		rows := skewRows(20000, 4, shape.domain, 0.05, uint64(shape.domain))
		order := make([]int, len(rows))
		for i := range order {
			order[i] = i
		}
		d := rowsDataset(t, rows, shape.domain, order)
		rand.New(rand.NewPCG(7, uint64(shape.domain))).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		dp := rowsDataset(t, rows, shape.domain, order)
		s := spillSet(t, d)
		k := NewKeyer(d, s)
		if k.Words() != shape.words {
			t.Fatalf("domain %d keys %d words, want %d", shape.domain, k.Words(), shape.words)
		}
		want := must(BuildPC(d, s, CountOptions{Workers: 1}))
		exact, _ := labelSize(d, s, -1)
		for _, mode := range []struct {
			name    string
			budget  int64
			spilled bool
		}{
			{"materialized", spillBudgetFor(d, s, 4), false},
			{"merge-on-read", int64(want.Size()) * k.entryBytes() / 2, true},
		} {
			for _, workers := range diffWorkerCounts {
				t.Run(fmt.Sprintf("words=%d_%s_workers=%d", shape.words, mode.name, workers), func(t *testing.T) {
					build := func(d *dataset.Dataset) (*PC, ScanStats) {
						var stats ScanStats
						opts := testCountOptions(workers)
						opts.MemBudget = mode.budget
						opts.SpillDir = t.TempDir()
						opts.Stats = &stats
						return must(BuildPC(d, s, opts)), stats
					}
					got, stats := build(d)
					defer got.ReleaseSpill()
					pcEqualContents(t, want, got)
					if stats.Spilled != 1 || got.Spilled() != mode.spilled {
						t.Fatalf("Spilled=%d, merge-on-read %v; want 1 and %v", stats.Spilled, got.Spilled(), mode.spilled)
					}
					perm, pstats := build(dp)
					defer perm.ReleaseSpill()
					pcEqualContents(t, want, perm)
					if pstats.SpillRuns != stats.SpillRuns || pstats.SpillMaxRunEntries != stats.SpillMaxRunEntries {
						t.Fatalf("permuted rows: %d runs, %d max run entries; in order %d and %d",
							pstats.SpillRuns, pstats.SpillMaxRunEntries, stats.SpillRuns, stats.SpillMaxRunEntries)
					}
					if mode.spilled {
						a, b := sealedRunBytes(t, got), sealedRunBytes(t, perm)
						if !slices.EqualFunc(a, b, slices.Equal) {
							t.Fatal("permuted rows sealed different run bytes")
						}
					}
					for _, cap := range []int{-1, exact - 1} {
						wantSize, wantWithin := labelSize(d, s, cap)
						opts := testCountOptions(workers)
						opts.MemBudget = mode.budget
						opts.SpillDir = t.TempDir()
						for _, data := range []*dataset.Dataset{d, dp} {
							size, within := must2(LabelSize(data, s, cap, opts))
							if size != wantSize || within != wantWithin {
								t.Fatalf("cap %d: LabelSize = (%d, %v), want (%d, %v)", cap, size, within, wantSize, wantWithin)
							}
						}
						assertNoSpillFiles(t, opts.SpillDir)
					}
				})
			}
		}
	}
}

// TestSpillCountWithinShare: a one-word key space of 50,176 keys, beyond
// the dense tier by the test hook, over 600,000 uniform rows. K is sized
// from the key space, so each run holds about 12 repeats of each of its
// keys, and a flush of 5,461 rows over a run's 12,500 keys sums few of
// them: the flushes write about 0.8 entries a row. The count sums its
// buffer in place as it fills, so every worker's count state stays within
// its share of the budget, and BuildPC and LabelSize still equal the
// unbudgeted ones.
func TestSpillCountWithinShare(t *testing.T) {
	const rows, domain = 600_000, 224
	bld := dataset.NewBuilder("repeat", "a", "b")
	for a := range 2 {
		for v := range domain {
			must(bld.InternValue(a, fmt.Sprintf("v%d", v)))
		}
	}
	rng := rand.New(rand.NewPCG(11, 0))
	for range rows {
		bld.AppendIDs(uint16(1+rng.IntN(domain)), uint16(1+rng.IntN(domain)))
	}
	d := must(bld.Build())
	s := lattice.FullSet(2)
	k := NewKeyer(d, s)
	if r, oneWord := k.Radix(); !oneWord || r != domain*domain {
		t.Fatalf("key space %d, one word %v; want %d keys in one word", r, oneWord, domain*domain)
	}
	want := must(BuildPC(d, s, CountOptions{Workers: 1}))
	budget := spillBudgetFor(d, s, 4)
	for _, workers := range diffWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var stats ScanStats
			opts := testCountOptions(workers)
			opts.denseLimitOverride = -1
			opts.MemBudget = budget
			opts.SpillDir = t.TempDir()
			opts.Stats = &stats
			got := must(BuildPC(d, s, opts))
			defer got.ReleaseSpill()
			pcEqualContents(t, want, got)
			size, within := must2(LabelSize(d, s, -1, opts))
			if size != want.Size() || !within {
				t.Fatalf("LabelSize = (%d, %v), want (%d, true)", size, within, want.Size())
			}
			share := countShare(budget, opts.scanWorkers(rows))
			if stats.Spilled != 2 || stats.SpillMaxCountBytes <= 0 || stats.SpillMaxCountBytes > share {
				t.Fatalf("Spilled=%d, count held %d bytes; want 2 spills within the %d-byte share",
					stats.Spilled, stats.SpillMaxCountBytes, share)
			}
		})
	}
}
