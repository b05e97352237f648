package core

// Read-path fault injection for the merge-on-read spilled PC: a transient
// run-read failure must recover through the bounded retry without changing
// any answer; a persistent failure must surface as a clean error from the
// query methods and must not be cached — once the disk heals, the same PC
// answers again. Every
// failure and retry is metered in both SpillReadStats and the build's
// ScanStats.

import (
	"context"
	"sync/atomic"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
)

// buildSpilledOnFaultFS builds the oracle and a budgeted merge-on-read PC
// whose run I/O is routed through a FaultFS, plus the ScanStats sink the
// spilled PC mirrors read errors into.
func buildSpilledOnFaultFS(t *testing.T, seed uint64) (d *dataset.Dataset, oracle, spilled *PC, ffs *iofault.FaultFS, st *ScanStats) {
	t.Helper()
	cfg := diffConfig{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}
	d = diffDataset(t, cfg, seed)
	s := spillSet(t, d)
	oracle = must(BuildPC(d, s, CountOptions{Workers: 1}))
	ffs = iofault.NewFaultFS(nil)
	st = &ScanStats{}
	opts := testCountOptions(2)
	opts.MemBudget = spillBudgetFor(d, s, evictRuns)
	opts.SpillDir = t.TempDir()
	opts.FS = ffs
	opts.Stats = st
	spilled = must(BuildPC(d, s, opts))
	if !spilled.Spilled() {
		t.Fatalf("budgeted build did not stay merge-on-read (size %d)", oracle.Size())
	}
	return d, oracle, spilled, ffs, st
}

func spilledProbes(t *testing.T, pc *PC, n int, seed uint64) [][]uint16 {
	t.Helper()
	// probeRows needs the dataset; regenerate it deterministically.
	cfg := diffConfig{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}
	return probeRows(diffDataset(t, cfg, seed), n, seed^0xF0)
}

func TestSpilledReadTransientFaultRetries(t *testing.T) {
	_, oracle, spilled, ffs, st := buildSpilledOnFaultFS(t, 0xC1)
	defer spilled.ReleaseSpill()
	probes := spilledProbes(t, spilled, 200, 0xC1)

	// Fault exactly the next read: the first lookup's run load fails once,
	// the bounded retry rescans, and the answer comes out unchanged.
	ffs.FailAt(iofault.OpRead, ffs.Counts()[iofault.OpRead]+1, nil)
	for i, vals := range probes {
		got, err := spilled.LookupValsCtx(nil, vals)
		if err != nil {
			t.Fatalf("probe %d: transient fault leaked: %v", i, err)
		}
		if want := must(oracle.LookupValsCtx(nil, vals)); got != want {
			t.Fatalf("probe %d: count %d after retry, oracle %d", i, got, want)
		}
	}
	stats, ok := spilled.SpillReadStats()
	if !ok {
		t.Fatal("SpillReadStats unavailable")
	}
	if stats.ReadErrors != 1 || stats.Retries != 1 {
		t.Fatalf("stats = %+v, want exactly one recovered failure", stats)
	}
	if atomic.LoadInt64(&st.SpillReadErrors) != 1 || atomic.LoadInt64(&st.SpillRetries) != 1 {
		t.Fatalf("ScanStats mirror = errors %d retries %d, want 1/1",
			st.SpillReadErrors, st.SpillRetries)
	}
}

func TestSpilledReadPersistentFaultSurfacesAndRecovers(t *testing.T) {
	_, oracle, spilled, ffs, _ := buildSpilledOnFaultFS(t, 0xC2)
	defer spilled.ReleaseSpill()
	probes := spilledProbes(t, spilled, 200, 0xC2)

	ffs.FailFrom(iofault.OpRead, ffs.Counts()[iofault.OpRead]+1, nil)
	// Nothing is cached yet, so the first probe must hit the dead disk:
	// a clean error, never a wrong count.
	if _, err := spilled.LookupValsCtx(nil, probes[0]); err == nil {
		t.Fatal("lookup on dead disk returned no error")
	}
	if err := spilled.EachCtx(nil, 4, func([]uint16, int) bool { return true }); err == nil {
		t.Fatal("EachCtx on dead disk returned no error")
	}
	stats, _ := spilled.SpillReadStats()
	if stats.ReadErrors < 2 || stats.Retries < 1 {
		t.Fatalf("stats = %+v, want the failure plus its failed retry metered", stats)
	}

	// Failed loads are not cached: heal the disk and the same PC answers.
	ffs.Reset()
	for i, vals := range probes {
		got, err := spilled.LookupValsCtx(nil, vals)
		if err != nil {
			t.Fatalf("probe %d: error after disk healed: %v", i, err)
		}
		if want := must(oracle.LookupValsCtx(nil, vals)); got != want {
			t.Fatalf("probe %d: count %d after heal, oracle %d", i, got, want)
		}
	}
}

func TestSpilledMarginalizeSurfacesReadFault(t *testing.T) {
	d, _, spilled, ffs, _ := buildSpilledOnFaultFS(t, 0xC3)
	defer spilled.ReleaseSpill()
	sub := spilled.Attrs()
	for _, a := range sub.Members() {
		sub = sub.Remove(a)
		break
	}
	ffs.FailFrom(iofault.OpRead, ffs.Counts()[iofault.OpRead]+1, nil)
	if _, err := spilled.MarginalizeCtx(nil, d, sub); err == nil {
		t.Fatal("MarginalizeCtx on dead disk returned no error")
	}
	ffs.Reset()
	if _, err := spilled.MarginalizeCtx(nil, d, sub); err != nil {
		t.Fatalf("MarginalizeCtx after heal: %v", err)
	}
}

// TestSharedSpillFaultDegradesOnlyFaultedSet sweeps injected faults over
// every filesystem op class sizing a frontier of over-budget sets performs
// — run-dir creation, run-file creation, partition writes,
// count-phase reads — and asserts the isolation contract: a fault on one
// set's run files degrades only that set to the in-memory fallback
// (metered in SpillFallbacks), sibling sets keep their on-disk spilled
// results, and every size stays bit-identical to the sequential oracle.
func TestSharedSpillFaultDegradesOnlyFaultedSet(t *testing.T) {
	cfg := diffConfig{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}
	d := diffDataset(t, cfg, 0xFA)
	full := lattice.FullSet(cfg.attrs)
	sets := []lattice.AttrSet{full}
	for i := 0; i < cfg.attrs; i++ {
		sets = append(sets, full.Remove(i))
	}
	budget := spillBudgetFor(d, full.Remove(0), 3)
	oracle := make([]int, len(sets))
	for i, s := range sets {
		oracle[i], _ = labelSize(d, s, -1)
	}

	run := func(ffs *iofault.FaultFS) (sizes []int, stats ScanStats) {
		// Workers=1 keeps the sizing deterministic so the recording run's
		// op counts describe every faulted run too.
		opts := testCountOptions(1)
		opts.MemBudget = budget
		opts.SpillDir = t.TempDir()
		opts.FS = ffs
		opts.Stats = &stats
		sizes, _ = must2(LabelSizes(d, sets, -1, opts))
		return sizes, stats
	}

	// Recording pass: how many ops of each class does a clean pass do?
	rec := iofault.NewFaultFS(nil)
	if sizes, stats := run(rec); stats.Spilled != int64(len(sets)) {
		t.Fatalf("clean pass: Spilled=%d, want %d", stats.Spilled, len(sets))
	} else {
		for i := range sets {
			if sizes[i] != oracle[i] {
				t.Fatalf("clean pass set %v: %d, oracle %d", sets[i], sizes[i], oracle[i])
			}
		}
	}
	counts := rec.Counts()

	for _, op := range []iofault.Op{iofault.OpMkdir, iofault.OpCreate, iofault.OpWrite, iofault.OpRead} {
		total := counts[op]
		if total == 0 {
			t.Fatalf("clean pass performed no ops of class %v", op)
		}
		// Sweep the first, an early, a middle and the last occurrence.
		sweep := []int64{1, 2, total / 2, total}
		for _, n := range sweep {
			if n < 1 || n > total {
				continue
			}
			ffs := iofault.NewFaultFS(nil)
			ffs.FailAt(op, n, nil)
			sizes, stats := run(ffs)
			for i := range sets {
				if sizes[i] != oracle[i] {
					t.Fatalf("op=%v n=%d set %v: size %d, oracle %d", op, n, sets[i], sizes[i], oracle[i])
				}
			}
			// The injection may land after a dead target stopped issuing
			// ops; when it did fire, exactly the faulted sets fell back
			// and the rest stayed on disk.
			fired := ffs.Counts()[op] >= n
			if fired && stats.SpillFallbacks < 1 {
				t.Fatalf("op=%v n=%d: fault fired but no fallback recorded", op, n)
			}
			if !fired && stats.SpillFallbacks != 0 {
				t.Fatalf("op=%v n=%d: %d fallbacks without a fired fault", op, n, stats.SpillFallbacks)
			}
			if stats.Spilled+stats.SpillFallbacks != int64(len(sets)) {
				t.Fatalf("op=%v n=%d: Spilled=%d + Fallbacks=%d != %d sets",
					op, n, stats.Spilled, stats.SpillFallbacks, len(sets))
			}
			// One injected occurrence hits one file of one target: the
			// blast radius must stay a single set.
			if stats.SpillFallbacks > 1 {
				t.Fatalf("op=%v n=%d: %d sets degraded from one injected fault", op, n, stats.SpillFallbacks)
			}
		}
	}
}

// TestLabelSizeSpillFallsBackOnce pins LabelSize as LabelSizes of one set:
// with every spill-file create failing, the over-budget set falls back to
// memory exactly once — one spill directory, one fallback — and reports
// the same counters for every worker count, with or without an armed ctx.
func TestLabelSizeSpillFallsBackOnce(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 20000, attrs: 4, domain: 300}, 0xFB)
	s := spillSet(t, d)
	want, _ := labelSize(d, s, -1)
	armed, cancel := context.WithCancel(context.Background())
	defer cancel()
	var first ScanStats
	for _, workers := range []int{1, 2, 4} {
		for _, ctx := range []context.Context{nil, armed} {
			ffs := iofault.NewFaultFS(nil)
			ffs.FailFrom(iofault.OpCreate, 1, nil)
			var stats ScanStats
			opts := CountOptions{Workers: workers, MemBudget: 64 << 10, SpillDir: t.TempDir(), FS: ffs, Stats: &stats, Ctx: ctx}
			size, within := must2(LabelSize(d, s, -1, opts))
			if size != want || !within {
				t.Fatalf("workers=%d ctx=%v: got (%d, %v), oracle %d", workers, ctx != nil, size, within, want)
			}
			if stats.SpillFallbacks != 1 || stats.Spilled != 0 {
				t.Fatalf("workers=%d ctx=%v: SpillFallbacks=%d Spilled=%d, want 1 and 0",
					workers, ctx != nil, stats.SpillFallbacks, stats.Spilled)
			}
			if dirs := ffs.Counts()[iofault.OpMkdir]; dirs != 1 {
				t.Fatalf("workers=%d ctx=%v: %d spill directories, want 1", workers, ctx != nil, dirs)
			}
			if workers == 1 && ctx == nil {
				first = stats
			} else if stats != first {
				t.Fatalf("workers=%d ctx=%v: stats %+v, workers=1 nil ctx %+v", workers, ctx != nil, stats, first)
			}
		}
	}
}
