package core

// Cancellation contract of the counting engine: a fired context surfaces
// as the typed context error (context.Canceled / context.DeadlineExceeded)
// from every *Ctx / *E entry point, on every kernel tier — dense, map,
// byte-map, spill — for every worker count; no partial index escapes, no
// spill temp files or goroutines outlive the call, and a label never
// retains its build context. ENOSPC is a degraded mode, not an error:
// injected full-disk faults route the affected set through the in-memory
// fallback with bit-identical sizes, metered in ScanStats.

import (
	"context"
	"errors"
	"testing"
	"time"

	"pcbl/internal/dataset"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
	"pcbl/internal/spill"
	"pcbl/internal/testutil"
)

// ctxShapes routes one config onto each kernel tier (see pcRepr).
var ctxShapes = []struct {
	name string
	cfg  diffConfig
	spl  bool // arm a MemBudget that forces the spill tier
}{
	{name: "dense", cfg: diffConfig{rows: 2000, attrs: 3, domain: 8}},
	{name: "map", cfg: diffConfig{rows: 3000, attrs: 4, domain: 300}},
	{name: "bytes", cfg: diffConfig{rows: 3000, attrs: 4, domain: 65000}},
	{name: "spill", cfg: diffConfig{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}, spl: true},
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestCancelledBuildReturnsTypedError(t *testing.T) {
	testutil.CheckGoroutines(t)
	for si, sh := range ctxShapes {
		t.Run(sh.name, func(t *testing.T) {
			d := diffDataset(t, sh.cfg, uint64(si)+0xCC)
			s := lattice.FullSet(sh.cfg.attrs)
			for _, workers := range diffWorkerCounts {
				dir := t.TempDir()
				opts := testCountOptions(workers)
				opts.SpillDir = dir
				if sh.spl {
					opts.MemBudget = spillBudgetFor(d, s, 3)
				}
				opts.Ctx = cancelledCtx()
				pc, err := BuildPC(d, s, opts)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
				}
				if pc != nil {
					t.Fatalf("workers=%d: cancelled build returned a partial index", workers)
				}
				assertNoSpillFiles(t, dir)
			}
		})
	}
}

func TestExpiredDeadlineBuildReturnsDeadlineExceeded(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 3000, attrs: 4, domain: 300}, 0xCD)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	opts := testCountOptions(4)
	opts.Ctx = ctx
	_, err := BuildPC(d, lattice.FullSet(4), opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestCancelledSizingReturnsTypedError(t *testing.T) {
	testutil.CheckGoroutines(t)
	for si, sh := range ctxShapes {
		t.Run(sh.name, func(t *testing.T) {
			d := diffDataset(t, sh.cfg, uint64(si)+0xCE)
			s := lattice.FullSet(sh.cfg.attrs)
			for _, workers := range diffWorkerCounts {
				dir := t.TempDir()
				opts := testCountOptions(workers)
				opts.SpillDir = dir
				opts.Ctx = cancelledCtx()
				if sh.spl {
					opts.MemBudget = spillBudgetFor(d, s, 3)
				}
				if _, _, err := LabelSize(d, s, -1, opts); !errors.Is(err, context.Canceled) {
					t.Fatalf("LabelSize workers=%d: err = %v, want context.Canceled", workers, err)
				}
				sets := []lattice.AttrSet{s, s.Remove(0)}
				if _, _, err := LabelSizes(d, sets, -1, opts); !errors.Is(err, context.Canceled) {
					t.Fatalf("LabelSizes workers=%d: err = %v, want context.Canceled", workers, err)
				}
				assertNoSpillFiles(t, dir)
			}
		})
	}
}

func TestCancelledSiblingGroupReturnsTypedError(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 2000, attrs: 4, domain: 8}, 0xCF)
	pool := NewVecPool(0)
	opts := testCountOptions(2)
	opts.Pool = pool
	opts.Ctx = cancelledCtx()
	sizes, within, err := LabelSizes(d, lattice.NewAttrSet(0).Gen(4), -1, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sizes != nil || within != nil {
		t.Fatal("cancelled group returned partial results")
	}
	// The cancelled pass must have returned its slabs: the pool is still
	// usable (a double-put would corrupt it).
	v := pool.Int32(128, false)
	if len(v) != 128 {
		t.Fatal("pool returned wrong-size slab after cancelled group")
	}
	pool.PutInt32(v)
}

func TestLabelDoesNotRetainBuildContext(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 2000, attrs: 3, domain: 8}, 0xD0)
	ctx, cancel := context.WithCancel(context.Background())
	opts := testCountOptions(2)
	opts.Ctx = ctx
	l, err := BuildLabel(d, lattice.FullSet(3), opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cancel() // the label must outlive its build context
	p := PatternFromRow(d, 0, lattice.NewAttrSet(0, 1))
	if _, ok, err := l.CountCtx(nil, p); err != nil || !ok {
		t.Fatalf("marginal count after build-ctx cancel: ok=%v err=%v", ok, err)
	}
}

func TestCancelledSpilledReadReturnsTypedError(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, oracle, spilled, _, _ := buildSpilledOnFaultFS(t, 0xD1)
	defer spilled.ReleaseSpill()
	probes := spilledProbes(t, spilled, 50, 0xD1)

	ctx := cancelledCtx()
	if _, err := spilled.LookupValsCtx(ctx, probes[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("LookupValsCtx: err = %v, want context.Canceled", err)
	}
	if err := spilled.EachCtx(ctx, 4, func([]uint16, int) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("EachCtx: err = %v, want context.Canceled", err)
	}
	// Cancellation is the caller's doing, not disk trouble: the read-error
	// and retry meters must not move.
	if st, ok := spilled.SpillReadStats(); !ok || st.ReadErrors != 0 || st.Retries != 0 {
		t.Fatalf("ctx errors were metered as read failures: %+v", st)
	}
	// Nothing was poisoned: the same PC answers with a live context.
	for i, vals := range probes {
		got, err := spilled.LookupValsCtx(context.Background(), vals)
		if err != nil {
			t.Fatalf("probe %d after cancel: %v", i, err)
		}
		if want := must(oracle.LookupValsCtx(nil, vals)); got != want {
			t.Fatalf("probe %d: count %d, oracle %d", i, got, want)
		}
	}
}

func TestENOSPCDegradesToInMemoryFallback(t *testing.T) {
	cfg := diffConfig{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}
	d := diffDataset(t, cfg, 0xD2)
	full := lattice.FullSet(cfg.attrs)
	sets := []lattice.AttrSet{full}
	for i := 0; i < cfg.attrs; i++ {
		sets = append(sets, full.Remove(i))
	}
	oracle := make([]int, len(sets))
	for i, s := range sets {
		oracle[i], _ = labelSize(d, s, -1)
	}

	ffs := iofault.NewFaultFS(nil)
	ffs.NoSpaceFrom(iofault.OpWrite, 1) // disk full from the first write
	dir := t.TempDir()
	var stats ScanStats
	opts := testCountOptions(2)
	opts.MemBudget = spillBudgetFor(d, full.Remove(0), 3)
	opts.SpillDir = dir
	opts.FS = ffs
	opts.Stats = &stats
	sizes, _, err := LabelSizes(d, sets, -1, opts)
	if err != nil {
		t.Fatalf("full disk must degrade, not fail: %v", err)
	}
	for i := range sets {
		if sizes[i] != oracle[i] {
			t.Fatalf("set %v: size %d on full disk, oracle %d", sets[i], sizes[i], oracle[i])
		}
	}
	if stats.SpillFallbacks == 0 {
		t.Fatal("no spill fallbacks metered on a full disk")
	}
	if stats.SpillNoSpaceFallbacks != stats.SpillFallbacks {
		t.Fatalf("SpillNoSpaceFallbacks = %d, want all %d fallbacks classified ENOSPC",
			stats.SpillNoSpaceFallbacks, stats.SpillFallbacks)
	}
	assertNoSpillFiles(t, dir)

	// The budgeted build degrades the same way, bit-identically.
	want := must(BuildPC(d, full, CountOptions{Workers: 1}))
	var bstats ScanStats
	bopts := testCountOptions(2)
	bopts.MemBudget = spillBudgetFor(d, full, 3)
	bopts.SpillDir = dir
	bopts.FS = ffs
	bopts.Stats = &bstats
	got, err := BuildPC(d, full, bopts)
	if err != nil {
		t.Fatalf("budgeted build on full disk: %v", err)
	}
	pcEqualContents(t, want, got)
	if bstats.SpillNoSpaceFallbacks == 0 {
		t.Fatal("budgeted build fallback not classified ENOSPC")
	}
	assertNoSpillFiles(t, dir)
}

func TestENOSPCWriterSurfacesTypedError(t *testing.T) {
	ffs := iofault.NewFaultFS(nil)
	ffs.NoSpaceFrom(iofault.OpCreate, 1)
	_, err := spill.NewWriter(spill.Config{RecWidth: 8, Runs: 4, Dir: t.TempDir(), FS: ffs})
	if !errors.Is(err, spill.ErrNoSpace) {
		t.Fatalf("err = %v, want spill.ErrNoSpace", err)
	}
}

// cancelAtMkdir cancels a context at its nth directory creation, so a
// spilled build or merge is cancelled after every check before its disk
// work: here, as it creates the directory of its sorted runs.
type cancelAtMkdir struct {
	iofault.FS
	n      int
	cancel context.CancelFunc
}

func (c *cancelAtMkdir) MkdirTemp(dir, pattern string) (string, error) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.FS.MkdirTemp(dir, pattern)
}

// TestCancelledSortedRunWriteLeavesNoFiles: a build cancelled while it
// writes its sorted runs, and a merge cancelled while it writes its
// merged runs (by linear merge, or re-partitioned after a domain grew),
// return the typed context error and leave no run file behind.
func TestCancelledSortedRunWriteLeavesNoFiles(t *testing.T) {
	testutil.CheckGoroutines(t)
	cfg := diffConfig{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}
	d := diffDataset(t, cfg, 0xD5)
	s := spillSet(t, d)
	budget := spillBudgetFor(d, s, 3)
	spilledOpts := func(workers int, dir string, mkdir int) (CountOptions, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		opts := testCountOptions(workers)
		opts.MemBudget = budget
		opts.SpillDir = dir
		opts.Ctx = ctx
		opts.FS = &cancelAtMkdir{FS: iofault.OS, n: mkdir, cancel: cancel}
		return opts, cancel
	}
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		opts, cancel := spilledOpts(workers, dir, 2) // partition dir, then sorted runs
		pc, err := BuildPC(d, s, opts)
		cancel()
		if !errors.Is(err, context.Canceled) || pc != nil {
			t.Fatalf("workers=%d: build = (%v, %v), want context.Canceled and no index", workers, pc != nil, err)
		}
		assertNoSpillFiles(t, dir)
	}

	cut := cfg.rows - cfg.rows/8
	grownBase, grownDelta, _ := growthDataset(t, 3000, 4, 60, 80, 300, 0xD6)
	for _, tc := range []struct {
		name        string
		base, delta *dataset.Dataset
	}{
		{"linear", nil, nil},
		{"rekey", grownBase, grownDelta},
	} {
		base, delta := tc.base, tc.delta
		if base == nil {
			base, delta = splitDataset(t, d, cut)
		}
		s := lattice.FullSet(4)
		bopts := testCountOptions(2)
		bopts.MemBudget = spillBudgetFor(base, s, 3)
		bopts.SpillDir = t.TempDir()
		bl := must(BuildLabel(base, s, bopts))
		if !bl.PC().Spilled() {
			t.Fatalf("%s: base did not spill", tc.name)
		}
		dl := must(BuildLabel(delta, s, CountOptions{}))
		dir := t.TempDir()
		opts, cancel := spilledOpts(2, dir, 1) // the merge's first directory
		opts.MemBudget = 0
		bl.SetCountOptions(opts)
		_, _, err := bl.Merge(dl, -1)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: merge = %v, want context.Canceled", tc.name, err)
		}
		assertNoSpillFiles(t, dir)
		bl.ReleaseSpill()
		assertNoSpillFiles(t, bopts.SpillDir)
	}
}

// TestSortedRunWriteFaultFallsBack: a failed or full-disk write of the
// sorted runs a budgeted build keeps falls back to the in-memory kernel
// exactly as a failed partition write does — metered in SpillFallbacks,
// and in SpillNoSpaceFallbacks when the disk is full — with an exact
// result and no run file left behind.
func TestSortedRunWriteFaultFallsBack(t *testing.T) {
	cfg := diffConfig{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05}
	d := diffDataset(t, cfg, 0xD7)
	s := spillSet(t, d)
	want := must(BuildPC(d, s, CountOptions{Workers: 1}))
	opts := CountOptions{Workers: 1, MemBudget: spillBudgetFor(d, s, 3)}
	// The build's partition phase on its own — the writer and pass the
	// build sets up — marks where the sorted-run writes start.
	rec := iofault.NewFaultFS(nil)
	k := NewKeyer(d, s)
	runs, ok := opts.spillFor(k, d.NumRows(), 1)
	if !ok {
		t.Fatal("set does not spill under the budget")
	}
	w := must(spill.NewWriter(spill.Config{RecWidth: 8 * k.Words(), Runs: runs, Dir: t.TempDir(), FS: rec}))
	err := spillPartition(w, k, datasetCols(d), d.NumRows(), 1, nil, opts.stop())
	w.Cleanup()
	if err != nil {
		t.Fatal(err)
	}
	part := rec.Counts()
	for _, tc := range []struct {
		name    string
		script  func(*iofault.FaultFS)
		noSpace bool
	}{
		{"dir", func(f *iofault.FaultFS) { f.FailAt(iofault.OpMkdir, part[iofault.OpMkdir]+1, nil) }, false},
		{"create-full", func(f *iofault.FaultFS) { f.NoSpaceAt(iofault.OpCreate, part[iofault.OpCreate]+1) }, true},
		{"write-full", func(f *iofault.FaultFS) { f.NoSpaceAt(iofault.OpWrite, part[iofault.OpWrite]+1) }, true},
		{"write-eio", func(f *iofault.FaultFS) { f.FailAt(iofault.OpWrite, part[iofault.OpWrite]+2, nil) }, false},
	} {
		ffs := iofault.NewFaultFS(nil)
		tc.script(ffs)
		var stats ScanStats
		o := opts
		o.FS, o.SpillDir, o.Stats = ffs, t.TempDir(), &stats
		got := must(BuildPC(d, s, o))
		pcEqualContents(t, want, got)
		wantNoSpace := int64(0)
		if tc.noSpace {
			wantNoSpace = 1
		}
		if stats.Spilled != 0 || stats.SpillFallbacks != 1 || stats.SpillNoSpaceFallbacks != wantNoSpace {
			t.Fatalf("%s: Spilled=%d SpillFallbacks=%d SpillNoSpaceFallbacks=%d, want 0, 1, %d",
				tc.name, stats.Spilled, stats.SpillFallbacks, stats.SpillNoSpaceFallbacks, wantNoSpace)
		}
		got.ReleaseSpill()
		assertNoSpillFiles(t, o.SpillDir)
	}
}
