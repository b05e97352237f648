package core

// Differential tests for the external-memory spill tier: under a MemBudget
// that forces multiple on-disk runs, the spill group-by must be
// bit-identical to BuildPC and LabelSize — same pattern→count maps, same
// cap-abort outcomes — for every worker count and key width (one-word and
// two-word records), and must leave no run files behind
// on any exit path. Budgeted builds whose result models over the budget
// come back merge-on-read (spilledpc.go): those are additionally pinned
// against the in-memory oracle through the whole consumer surface
// (Size/LookupValsCtx/EachCtx/MarginalizeCtx) and release their runs on demand.

import (
	"math/rand/v2"
	"os"
	"sync"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
)

// spillConfigs are the shapes the spill tier serves, across NULL rates and
// duplication levels: two-word-key sets (mixed-radix key past one word)
// and one-word-key sets beyond the dense tier.
var spillConfigs = []diffConfig{
	{rows: 3000, attrs: 4, domain: 65000, nullRate: 0},
	{rows: 3000, attrs: 4, domain: 65000, nullRate: 0.1},
	{rows: 2000, attrs: 5, domain: 40000, nullRate: 0.3},
	{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}, // 300^4 fits one word, beyond dense
}

// spillBudgetFor returns a MemBudget that forces the full set of cfg into
// at least minRuns spill runs (for a single counting worker; parallel
// counting only increases the run count).
func spillBudgetFor(d *dataset.Dataset, s lattice.AttrSet, minRuns int) int64 {
	k := NewKeyer(d, s)
	distinct := d.NumRows()
	if r, oneWord := k.Radix(); oneWord && r < uint64(distinct) {
		distinct = int(r)
	}
	return int64(distinct)*k.entryBytes()/int64(minRuns) - 1
}

// spillSet returns the full attribute set, skipping configs whose full-set
// grouping the dispatch would serve densely (those never spill).
func spillSet(t *testing.T, d *dataset.Dataset) lattice.AttrSet {
	t.Helper()
	s := lattice.FullSet(d.NumAttrs())
	k := NewKeyer(d, s)
	if _, dense := denseRadix(k, d.NumRows(), defaultDenseLimit); dense {
		t.Skipf("set %v is dense-keyable; not a spill shape", s)
	}
	return s
}

// assertNoSpillFiles checks that a scan left its private spill directory
// tree fully removed.
func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill entries left behind in %s", len(ents), dir)
	}
}

// pcEqualContents compares two pattern-count indexes entry by entry via
// Each, without constraining the storage representation — the comparator
// for budgeted builds, whose representation (materialized vs merge-on-read
// spilled) legitimately differs from the unbudgeted oracle's.
func pcEqualContents(t *testing.T, want, got *PC) {
	t.Helper()
	if want.Size() != got.Size() {
		t.Fatalf("size mismatch: oracle %d, budgeted %d", want.Size(), got.Size())
	}
	wd, gd := pcDump(want), pcDump(got)
	if len(wd) != len(gd) {
		t.Fatalf("pattern count mismatch: oracle %d, budgeted %d", len(wd), len(gd))
	}
	for key, c := range wd {
		if gd[key] != c {
			t.Fatalf("pattern %q: oracle count %d, budgeted %d", key, c, gd[key])
		}
	}
}

func TestDifferentialSpillBuildPC(t *testing.T) {
	for ci, cfg := range spillConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+0x51)
			s := spillSet(t, d)
			k := NewKeyer(d, s)
			want := must(BuildPC(d, s, CountOptions{Workers: 1}))
			budget := spillBudgetFor(d, s, 4)
			for _, workers := range diffWorkerCounts {
				dir := t.TempDir()
				var stats ScanStats
				opts := testCountOptions(workers)
				opts.MemBudget = budget
				opts.SpillDir = dir
				opts.Stats = &stats
				got := must(BuildPC(d, s, opts))
				pcEqualContents(t, want, got)
				if stats.Spilled != 1 {
					t.Fatalf("workers=%d: Spilled = %d, want 1", workers, stats.Spilled)
				}
				if stats.SpillRuns < 4 {
					t.Fatalf("workers=%d: SpillRuns = %d, want >= 4", workers, stats.SpillRuns)
				}
				// Every distinct key reaches a partition run at least once,
				// at least a byte per key word and one for its count.
				if least := int64(want.Size() * (k.Words() + 1)); stats.SpillBytes < least {
					t.Fatalf("workers=%d: SpillBytes = %d, want >= %d", workers, stats.SpillBytes, least)
				}
				// Whether the result materialized or stayed merge-on-read
				// is decided by the exact counted size against the budget —
				// identical for every worker count.
				wantSpilled := int64(want.Size())*k.entryBytes() > budget
				if got.Spilled() != wantSpilled {
					t.Fatalf("workers=%d: Spilled() = %v, want %v (size %d, budget %d)",
						workers, got.Spilled(), wantSpilled, want.Size(), budget)
				}
				got.ReleaseSpill()
				assertNoSpillFiles(t, dir)
			}
		})
	}
}

func TestDifferentialSpillLabelSize(t *testing.T) {
	for ci, cfg := range spillConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+0x52)
			s := spillSet(t, d)
			exact, _ := labelSize(d, s, -1)
			budget := spillBudgetFor(d, s, 4)
			caps := []int{-1, 0, 1, exact - 1, exact, exact + 1}
			for _, workers := range diffWorkerCounts {
				for _, cap := range caps {
					wantSize, wantWithin := labelSize(d, s, cap)
					dir := t.TempDir()
					opts := testCountOptions(workers)
					opts.MemBudget = budget
					opts.SpillDir = dir
					gotSize, gotWithin := must2(LabelSize(d, s, cap, opts))
					if gotSize != wantSize || gotWithin != wantWithin {
						t.Fatalf("workers=%d cap=%d: got (%d, %v), want (%d, %v)",
							workers, cap, gotSize, gotWithin, wantSize, wantWithin)
					}
					assertNoSpillFiles(t, dir)
				}
			}
		})
	}
}

// TestSpilledSizingCountsOnly pins the sizing ending of a spilled scan at
// both key widths: a set whose sizing state models over the budget is
// partitioned and its runs counted, but no sorted run is written — the
// only files created are the partition runs — and a cap stops the count
// once the running total passes it, so fewer runs are read than uncapped.
func TestSpilledSizingCountsOnly(t *testing.T) {
	for ci, cfg := range []diffConfig{spillConfigs[0], spillConfigs[3]} {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+0x5C)
			s := spillSet(t, d)
			exact, _ := labelSize(d, s, -1)
			budget := spillBudgetFor(d, s, 8)
			size := func(cap int) (int, bool, ScanStats, map[iofault.Op]int64) {
				ffs := iofault.NewFaultFS(nil)
				var stats ScanStats
				opts := CountOptions{Workers: 1, MemBudget: budget, SpillDir: t.TempDir(), FS: ffs, Stats: &stats}
				n, within := must2(LabelSize(d, s, cap, opts))
				return n, within, stats, ffs.Counts()
			}
			n, within, stats, ops := size(-1)
			if n != exact || !within || stats.Spilled != 1 {
				t.Fatalf("uncapped: (%d, %v) Spilled=%d, want (%d, true) spilled once",
					n, within, stats.Spilled, exact)
			}
			if ops[iofault.OpCreate] != stats.SpillRuns {
				t.Fatalf("created %d files for %d partition runs: sizing wrote sorted runs",
					ops[iofault.OpCreate], stats.SpillRuns)
			}
			cap := exact / 2
			n, within, stats, capOps := size(cap)
			if n != cap+1 || within || stats.Spilled != 1 {
				t.Fatalf("cap %d: (%d, %v) Spilled=%d, want (%d, false) spilled once", cap, n, within, stats.Spilled, cap+1)
			}
			if capOps[iofault.OpRead] >= ops[iofault.OpRead] {
				t.Fatalf("cap %d read %d times, uncapped %d: the count did not stop at the cap",
					cap, capOps[iofault.OpRead], ops[iofault.OpRead])
			}
		})
	}
}

// TestDifferentialSpillFused mixes spilled and in-memory sets in one fused
// frontier: spilled sets must not perturb the fused scan's results, and
// every set must match its sequential LabelSize. Uncapped, some set
// spills; at caps 5 and 500 every set's cap+1 keys fit the budget, so the
// whole frontier stays in memory.
func TestDifferentialSpillFused(t *testing.T) {
	cfg := diffConfig{rows: 3000, attrs: 5, domain: 65000, nullRate: 0.1}
	d := diffDataset(t, cfg, 0x53)
	rng := rand.New(rand.NewPCG(0x53, 0xF00D))
	sets := diffAttrSets(cfg.attrs, rng)
	full := lattice.FullSet(cfg.attrs)
	budget := spillBudgetFor(d, full, 4)
	for _, cap := range []int{-1, 5, 500} {
		wantSizes := make([]int, len(sets))
		wantWithin := make([]bool, len(sets))
		for i, s := range sets {
			wantSizes[i], wantWithin[i] = labelSize(d, s, cap)
		}
		for _, workers := range diffWorkerCounts {
			dir := t.TempDir()
			var stats ScanStats
			opts := testCountOptions(workers)
			opts.MemBudget = budget
			opts.SpillDir = dir
			opts.Stats = &stats
			sizes, within := must2(LabelSizes(d, sets, cap, opts))
			for i := range sets {
				if sizes[i] != wantSizes[i] || within[i] != wantWithin[i] {
					t.Fatalf("cap=%d workers=%d set %v: got (%d, %v), want (%d, %v)",
						cap, workers, sets[i], sizes[i], within[i], wantSizes[i], wantWithin[i])
				}
			}
			if spilled := stats.Spilled > 0; spilled != (cap < 0) {
				t.Fatalf("cap=%d workers=%d: Spilled=%d under budget %d, want spills only uncapped",
					cap, workers, stats.Spilled, budget)
			}
			assertNoSpillFiles(t, dir)
		}
	}
}

// TestSpillU64Format pins the one-word dispatch rule: a one-word-keyable
// set beyond the dense tier spills one-word keys and stays bit-identical
// to the oracle. Its partition runs are codec frames of one-word keys,
// pre-summed per flush: the spilled bytes beyond the sorted runs the
// result keeps hold each distinct key at least once, at two bytes or more
// an entry, and take fewer than eight bytes a row.
func TestSpillU64Format(t *testing.T) {
	cfg := spillConfigs[3] // 300^4 fits one word, beyond the dense slot limit
	d := diffDataset(t, cfg, 0x54)
	s := lattice.FullSet(cfg.attrs)
	k := NewKeyer(d, s)
	if k.Words() != 1 {
		t.Fatalf("config %v unexpectedly keys %d words", cfg, k.Words())
	}
	if _, dense := denseRadix(k, d.NumRows(), defaultDenseLimit); dense {
		t.Fatalf("config %v unexpectedly dense-keyable", cfg)
	}
	want := must(BuildPC(d, s, CountOptions{Workers: 1}))
	var stats ScanStats
	opts := testCountOptions(2)
	opts.MemBudget = spillBudgetFor(d, s, 4)
	opts.SpillDir = t.TempDir()
	opts.Stats = &stats
	got := must(BuildPC(d, s, opts))
	pcEqualContents(t, want, got)
	if stats.Spilled != 1 {
		t.Fatalf("Spilled=%d, want 1", stats.Spilled)
	}
	var sorted int64
	if r := got.Repr(); r.Spill != nil {
		sorted = r.Spill.Runs.Bytes()
	}
	if part := stats.SpillBytes - sorted; part < int64(2*want.Size()) || part >= int64(8*d.NumRows()) {
		t.Fatalf("partition runs took %d bytes for %d distinct keys over %d rows, want [%d, %d)",
			part, want.Size(), d.NumRows(), 2*want.Size(), 8*d.NumRows())
	}
	got.ReleaseSpill()
	assertNoSpillFiles(t, opts.SpillDir)
}

// TestSpillNeverDense pins the dispatch exemption: dense-keyable sets
// never spill, however small the budget — their flat count state is
// bounded by the dense slot limit, not the row count.
func TestSpillNeverDense(t *testing.T) {
	cfg := diffConfig{rows: 3000, attrs: 4, domain: 8, nullRate: 0.05}
	d := diffDataset(t, cfg, 0x58)
	s := lattice.FullSet(cfg.attrs)
	k := NewKeyer(d, s)
	if _, dense := denseRadix(k, d.NumRows(), defaultDenseLimit); !dense {
		t.Fatalf("config %v unexpectedly beyond the dense tier", cfg)
	}
	var stats ScanStats
	opts := testCountOptions(2)
	opts.MemBudget = 1 // absurdly small
	opts.Stats = &stats
	want := must(BuildPC(d, s, CountOptions{Workers: 1}))
	got := must(BuildPC(d, s, opts))
	pcEqual(t, want, got)
	if stats.Spilled != 0 {
		t.Fatalf("dense-keyable set spilled %d times", stats.Spilled)
	}
}

// TestSpillDispatchDeterministic pins the predicate's edges for both key
// widths: footprint at or under the budget stays in memory; one byte over
// spills; zero rows and unset budgets never spill; the run count scales
// with the counting workers' budget shares.
func TestSpillDispatchDeterministic(t *testing.T) {
	cfg := diffConfig{rows: 1000, attrs: 4, domain: 65000, nullRate: 0}
	d := diffDataset(t, cfg, 0x55)
	s := lattice.FullSet(cfg.attrs)
	k := NewKeyer(d, s)
	if k.Words() != 2 {
		t.Fatalf("set keys %d words, want 2", k.Words())
	}
	fp := int64(d.NumRows()) * (8*2 + spillEntryBytes)

	if _, ok := (CountOptions{MemBudget: fp}).spillFor(k, d.NumRows(), 1); ok {
		t.Fatal("footprint == budget spilled")
	}
	runs, ok := (CountOptions{MemBudget: fp - 1}).spillFor(k, d.NumRows(), 1)
	if !ok || runs < 2 {
		t.Fatalf("footprint > budget: got (runs=%d, ok=%v)", runs, ok)
	}
	if _, ok := (CountOptions{}).spillFor(k, d.NumRows(), 1); ok {
		t.Fatal("unset budget spilled")
	}
	if _, ok := (CountOptions{MemBudget: 1}).spillFor(k, 0, 1); ok {
		t.Fatal("zero-row scan spilled")
	}
	runs, ok = (CountOptions{MemBudget: 1}).spillFor(k, d.NumRows(), 1)
	if !ok || runs != maxSpillRuns {
		t.Fatalf("tiny budget: got (runs=%d, ok=%v), want fan-out capped at %d", runs, ok, maxSpillRuns)
	}

	// Per-worker budget shares: parallel run counting keeps one run's
	// entries live per worker, so K must scale with the worker count.
	runs1, _ := (CountOptions{MemBudget: fp / 4}).spillFor(k, d.NumRows(), 1)
	runs8, _ := (CountOptions{MemBudget: fp / 4}).spillFor(k, d.NumRows(), 8)
	if runs8 < 8*runs1/2 {
		t.Fatalf("runs did not scale with workers: %d at 1 worker, %d at 8", runs1, runs8)
	}

	// One-word edges: a one-word-keyable set beyond the dense tier
	// dispatches on the one-word footprint model.
	cfgU := diffConfig{rows: 1000, attrs: 4, domain: 300, nullRate: 0}
	dU := diffDataset(t, cfgU, 0x59)
	sU := lattice.FullSet(cfgU.attrs)
	kU := NewKeyer(dU, sU)
	if kU.Words() != 1 {
		t.Fatal("one-word config keys more than one word")
	}
	fpU := int64(dU.NumRows()) * (8 + spillEntryBytesU64)
	if _, ok := (CountOptions{MemBudget: fpU}).spillFor(kU, dU.NumRows(), 1); ok {
		t.Fatal("u64 footprint == budget spilled")
	}
	runs, ok = (CountOptions{MemBudget: fpU - 1}).spillFor(kU, dU.NumRows(), 1)
	if !ok || runs < 2 {
		t.Fatalf("u64 footprint > budget: got (runs=%d, ok=%v)", runs, ok)
	}
}

// TestSpillRunBudgetModel pins the budget claim the run sizing makes: with
// K = ceil(footprint/budget) runs, the largest run's modeled map footprint
// stays within the budget (hash balance gives a wide margin; the test
// allows 2x for skew).
func TestSpillRunBudgetModel(t *testing.T) {
	cfg := diffConfig{rows: 6000, attrs: 4, domain: 65000, nullRate: 0}
	d := diffDataset(t, cfg, 0x56)
	s := spillSet(t, d)
	budget := spillBudgetFor(d, s, 6)
	dir := t.TempDir()

	k := NewKeyer(d, s)
	runs, ok := (CountOptions{MemBudget: budget}).spillFor(k, d.NumRows(), 1)
	if !ok || runs < 6 {
		t.Fatalf("expected >= 6 runs, got (%d, %v)", runs, ok)
	}
	var stats ScanStats
	opts := CountOptions{Workers: 1, MemBudget: budget, SpillDir: dir, Stats: &stats}
	size, within, err := LabelSize(d, s, -1, opts)
	if err != nil || !within || stats.Spilled != 1 {
		t.Fatalf("spill sizing failed: err=%v within=%v Spilled=%d", err, within, stats.Spilled)
	}
	if exact, _ := labelSize(d, s, -1); size != exact {
		t.Fatalf("size %d != exact %d", size, exact)
	}
	modeled := stats.SpillMaxRunEntries * k.entryBytes()
	if modeled > 2*budget {
		t.Fatalf("largest run models %d B, budget %d B: runs are not bounding memory", modeled, budget)
	}
	assertNoSpillFiles(t, dir)
}

// TestSpillMaterializeDecision pins the merge-on-read decision: a heavily
// duplicated two-word-key dataset spills its scan (the rows-bound estimate
// is over budget) but its exact result fits, so the build comes back as an
// ordinary in-memory sorted PC with the run files already removed — while
// a near-distinct dataset under the same rule stays on disk.
func TestSpillMaterializeDecision(t *testing.T) {
	// ~60 distinct patterns across 4000 rows: result tiny, scan estimate big.
	cfg := diffConfig{rows: 4000, attrs: 4, domain: 65000, nullRate: 0}
	d := dupDataset(t, cfg, 60, 0x5A)
	s := lattice.FullSet(cfg.attrs)
	if NewKeyer(d, s).Words() == 1 {
		t.Fatal("expected two-word keys")
	}
	want := must(BuildPC(d, s, CountOptions{Workers: 1}))
	dir := t.TempDir()
	var stats ScanStats
	opts := testCountOptions(2)
	opts.MemBudget = spillBudgetFor(d, s, 4)
	opts.SpillDir = dir
	opts.Stats = &stats
	got := must(BuildPC(d, s, opts))
	if stats.Spilled != 1 {
		t.Fatalf("scan did not spill (Spilled=%d)", stats.Spilled)
	}
	if got.Spilled() {
		t.Fatalf("tiny result (%d entries) stayed merge-on-read", got.Size())
	}
	pcEqual(t, want, got)
	// Materialized through the spill scan: files must already be gone
	// without any release call.
	assertNoSpillFiles(t, dir)
}

// dupDataset builds a cfg-shaped dataset whose rows repeat from a pool of
// `distinct` tuples, so the exact pattern count is small while the
// dispatch estimate (distinct <= rows) stays large.
func dupDataset(t *testing.T, cfg diffConfig, distinct int, seed uint64) *dataset.Dataset {
	t.Helper()
	base := diffDataset(t, diffConfig{rows: distinct, attrs: cfg.attrs, domain: cfg.domain, nullRate: cfg.nullRate}, seed)
	bld := dataset.NewBuilder("dup", base.AttrNames()...)
	for a := 0; a < base.NumAttrs(); a++ {
		for _, v := range base.Attr(a).Domain() {
			if _, err := bld.InternValue(a, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xD0B))
	ids := make([]uint16, base.NumAttrs())
	for r := 0; r < cfg.rows; r++ {
		src := rng.IntN(base.NumRows())
		for a := range ids {
			ids[a] = base.Col(a)[src]
		}
		bld.AppendIDs(ids...)
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSpilledPCConsumerSurface pins the merge-on-read representation
// against the oracle through every consumer path: Size, LookupValsCtx of
// every present pattern, LookupValsCtx of absent and NULL-bearing patterns,
// Each early stop, and concurrent lookups from many goroutines.
func TestSpilledPCConsumerSurface(t *testing.T) {
	cfg := diffConfig{rows: 3000, attrs: 4, domain: 65000, nullRate: 0.1}
	d := diffDataset(t, cfg, 0x5B)
	s := spillSet(t, d)
	want := must(BuildPC(d, s, CountOptions{Workers: 1}))
	opts := testCountOptions(2)
	opts.MemBudget = spillBudgetFor(d, s, 4)
	opts.SpillDir = t.TempDir()
	got := must(BuildPC(d, s, opts))
	if !got.Spilled() {
		t.Fatalf("near-distinct build did not stay merge-on-read")
	}
	defer got.ReleaseSpill()

	if want.Size() != got.Size() {
		t.Fatalf("Size: oracle %d, spilled %d", want.Size(), got.Size())
	}
	n := d.NumAttrs()
	// Every stored pattern looks up identically (also exercises the pinned
	// hot-run cache on repeated probes of the same runs).
	noErr(want.EachCtx(nil, n, func(vals []uint16, c int) bool {
		if g := must(got.LookupValsCtx(nil, vals)); g != c {
			t.Fatalf("LookupValsCtx(%v) = %d, want %d", vals, g, c)
		}
		return true
	}))
	// Absent and NULL-bearing patterns return 0.
	absent := make([]uint16, n)
	for a := range absent {
		absent[a] = uint16(d.Attr(a).DomainSize()) // valid ids, unlikely combo
	}
	if must(want.LookupValsCtx(nil, absent)) == 0 && must(got.LookupValsCtx(nil, absent)) != 0 {
		t.Fatalf("absent pattern returned %d", must(got.LookupValsCtx(nil, absent)))
	}
	withNull := make([]uint16, n)
	withNull[0] = dataset.Null
	if must(got.LookupValsCtx(nil, withNull)) != 0 {
		t.Fatalf("NULL-bearing pattern returned %d", must(got.LookupValsCtx(nil, withNull)))
	}
	// Each with early stop.
	seen := 0
	noErr(got.EachCtx(nil, n, func(vals []uint16, c int) bool {
		seen++
		return seen < 10
	}))
	if seen != 10 {
		t.Fatalf("Each early stop visited %d patterns, want 10", seen)
	}
	// Concurrent lookups (the evaluation phase probes labels from worker
	// goroutines); run under -race in CI.
	rows := pcDumpRows(want, n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(rows); i += 4 {
				if must(got.LookupValsCtx(nil, rows[i].vals)) != rows[i].count {
					panic("concurrent lookup mismatch")
				}
			}
		}(g)
	}
	wg.Wait()
}

// pcDumpRows flattens a PC into (vals, count) rows for probing.
type pcRow struct {
	vals  []uint16
	count int
}

func pcDumpRows(pc *PC, n int) []pcRow {
	var rows []pcRow
	noErr(pc.EachCtx(nil, n, func(vals []uint16, c int) bool {
		v := make([]uint16, n)
		copy(v, vals)
		rows = append(rows, pcRow{v, c})
		return true
	}))
	return rows
}

func TestMarginalizeFromSpilledPC(t *testing.T) {
	cfg := diffConfig{rows: 2000, attrs: 4, domain: 65000, nullRate: 0}
	d := diffDataset(t, cfg, 0x57)
	s := spillSet(t, d)
	opts := testCountOptions(1)
	opts.MemBudget = spillBudgetFor(d, s, 4)
	opts.SpillDir = t.TempDir()
	spilled := must(BuildPC(d, s, opts))
	defer spilled.ReleaseSpill()
	sub := lattice.NewAttrSet(0, 2)
	want := must(must(BuildPC(d, s, CountOptions{Workers: 1})).MarginalizeCtx(nil, d, sub))
	got := must(spilled.MarginalizeCtx(nil, d, sub))
	pcEqual(t, want, got)
}

// TestSpillStatsRaceSafe drives budgeted scans from concurrent goroutines
// sharing one ScanStats — the satellite contract that spill counters are
// atomic. Run with -race (the CI GOMAXPROCS matrix covers this package).
func TestSpillStatsRaceSafe(t *testing.T) {
	cfg := diffConfig{rows: 2000, attrs: 4, domain: 65000, nullRate: 0}
	d := diffDataset(t, cfg, 0x5C)
	s := spillSet(t, d)
	budget := spillBudgetFor(d, s, 4)
	exact, _ := labelSize(d, s, -1)
	var stats ScanStats
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := testCountOptions(2)
			opts.MemBudget = budget
			opts.Stats = &stats
			if size, _ := must2(LabelSize(d, s, -1, opts)); size != exact {
				panic("concurrent spilled sizing mismatch")
			}
		}()
	}
	wg.Wait()
	if stats.Spilled != goroutines {
		t.Fatalf("Spilled = %d, want %d", stats.Spilled, goroutines)
	}
	if stats.SpillRuns < 4*goroutines {
		t.Fatalf("SpillRuns = %d, want >= %d", stats.SpillRuns, 4*goroutines)
	}
	if stats.SpillMaxRunEntries <= 0 {
		t.Fatal("SpillMaxRunEntries not recorded")
	}
}
