package core

import (
	"context"
	"errors"
	"sync/atomic"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/spill"
	"pcbl/internal/workpool"
)

// External-memory tier of the counting engine. Attribute sets beyond the
// dense kernel carry grouping state proportional to their distinct-key
// count — one map entry per group, with nothing but the row count (or a
// huge key space) bounding it. When CountOptions.MemBudget is set and the
// estimated footprint of that map exceeds it, kernel dispatch routes the
// set here: the scan hash-partitions its keys into K on-disk runs, runs
// are counted with the ordinary map kernels — K-way parallel across
// workers, since runs hold disjoint keys — and counts merge across runs
// with the exact cap-abort of label sizing (per-run counts are final and
// the distinct total is a monotone sum). Two record formats cover the two
// over-budget kernels: fixed-width 8-byte uint64 records for sets whose
// mixed-radix key fits uint64 (the common case once domains multiply), and
// 2-bytes-per-member byte-string records for keys that overflow it.
// Results are bit-identical to the in-memory kernels for every worker count
// and both formats (spillcount_test.go).
//
// Builds are budget-bounded end to end: when the counted result itself
// models within the budget it is materialized as an ordinary in-memory PC,
// and otherwise the PC keeps the on-disk runs and serves
// Size/LookupValsCtx/EachCtx by streaming them (merge-on-read, spilledpc.go) —
// the scan's careful budget is no longer blown by the result map.

// spillFormat names the fixed-width record encoding a spilled set uses.
type spillFormat uint8

const (
	// spillFmtBytes spills 2-bytes-per-member byte-string records (key
	// overflows uint64) counted into map[string]int.
	spillFmtBytes spillFormat = iota
	// spillFmtU64 spills fixed-width 8-byte little-endian uint64 records
	// (mixed-radix key fits uint64) counted into map[uint64]int; a
	// materialized result and every cached run hold the sorted layout.
	spillFmtU64
)

// spillEntryBytes is the deterministic per-distinct-key cost estimate of
// the byte map kernel: string header, map bucket share and bookkeeping
// dominate the key bytes themselves.
const spillEntryBytes = 64

// spillEntryBytesU64 is the per-distinct-key estimate of the uint64 map
// kernel: bucket share and bookkeeping, no string header or key bytes. It
// models the build's count maps, so it decides spilling and run counts;
// a merge-on-read index's run cache charges the sorted layout's real 12
// bytes an entry instead (spilledpc.go).
const spillEntryBytesU64 = 48

// spillRecWidthU64 is the fixed uint64 record width.
const spillRecWidthU64 = 8

// maxSpillRuns caps the partition fan-out (file handles and write
// buffers); beyond it a run may exceed the budget, which degrades peak
// memory gracefully rather than failing.
const maxSpillRuns = 512

// spillFootprint estimates the in-memory map footprint of a group-by with
// the given distinct-key bound, record width and per-entry model.
func spillFootprint(distinct, recWidth, entryBytes int) int64 {
	return int64(distinct) * int64(recWidth+entryBytes)
}

// recWidth returns the on-disk record width of a format for a keyer.
func (f spillFormat) recWidth(k *Keyer) int {
	if f == spillFmtU64 {
		return spillRecWidthU64
	}
	return 2 * len(k.members)
}

// entryBytes returns the per-distinct-key in-memory cost model of a
// format's count map (key payload plus map bookkeeping).
func (f spillFormat) entryBytes(k *Keyer) int64 {
	if f == spillFmtU64 {
		return spillRecWidthU64 + spillEntryBytesU64
	}
	return int64(2*len(k.members) + spillEntryBytes)
}

// spillFor decides whether a group-by must spill under the options' memory
// budget, which record format it spills with, and the run count K that
// keeps one run's estimated map within each count worker's share of the
// budget — parallel run counting holds one live run map per worker, so K
// scales with the worker count and the total stays near the budget. The
// decision is deterministic from (rows, keyer, budget, workers), so every
// entry point picks the same tier for the same inputs — the same property
// the dense/map/bytes selection has. Dense-keyable sets never spill: their
// flat count state is bounded by the dense slot limit, not the row count.
func (o CountOptions) spillFor(k *Keyer, rows, countWorkers int) (runs int, format spillFormat, ok bool) {
	if o.MemBudget <= 0 || rows == 0 {
		return 0, spillFmtBytes, false
	}
	var fp int64
	if k.Fits() {
		if _, dense := denseRadix(k, rows, o.denseLimit()); dense {
			return 0, spillFmtBytes, false
		}
		format = spillFmtU64
		distinct := rows
		if r, _ := k.Radix(); r < uint64(rows) {
			distinct = int(r) // the key space itself bounds the map
		}
		fp = spillFootprint(distinct, spillRecWidthU64, spillEntryBytesU64)
	} else {
		format = spillFmtBytes
		fp = spillFootprint(rows, 2*len(k.members), spillEntryBytes)
	}
	if fp <= o.MemBudget {
		return 0, spillFmtBytes, false
	}
	if countWorkers < 1 {
		countWorkers = 1
	}
	share := o.MemBudget / int64(countWorkers)
	if share < 1 {
		share = 1
	}
	runs = int((fp + share - 1) / share)
	if runs > maxSpillRuns {
		runs = maxSpillRuns
	}
	return runs, format, true
}

// addSpill accumulates one spilled scan's counters. Updates are atomic so
// scans sharing a ScanStats may run on concurrent goroutines (the label
// evaluation phase scores candidates in parallel).
func (st *ScanStats) addSpill(s spill.Stats, format spillFormat, countWorkers int) {
	if st == nil {
		return
	}
	atomic.AddInt64(&st.Spilled, 1)
	if format == spillFmtU64 {
		atomic.AddInt64(&st.SpilledU64, 1)
	}
	atomic.AddInt64(&st.SpillRuns, int64(s.Runs))
	if countWorkers > 1 {
		atomic.AddInt64(&st.SpillParallelRuns, int64(s.Runs))
	}
	atomic.AddInt64(&st.SpillBytes, s.BytesWritten)
	for {
		cur := atomic.LoadInt64(&st.SpillMaxRunEntries)
		if int64(s.MaxRunEntries) <= cur ||
			atomic.CompareAndSwapInt64(&st.SpillMaxRunEntries, cur, int64(s.MaxRunEntries)) {
			return
		}
	}
}

// addSpillFallback records one disk-trouble in-memory fallback: a spill
// scan that could not complete (writer creation, partition write or run
// count failed) and was re-run with the unbounded in-memory kernel.
func (st *ScanStats) addSpillFallback() {
	if st == nil {
		return
	}
	atomic.AddInt64(&st.SpillFallbacks, 1)
}

// addSpillFallbackErr is addSpillFallback with error classification: a
// fallback caused by disk exhaustion (the error wraps spill.ErrNoSpace,
// i.e. the filesystem reported ENOSPC) additionally bumps the dedicated
// no-space counter, so operators can tell a full disk from flaky I/O in
// ScanStats without parsing error strings. Context cancellations never
// reach here — callers propagate them instead of falling back.
func (st *ScanStats) addSpillFallbackErr(err error) {
	if st == nil {
		return
	}
	atomic.AddInt64(&st.SpillFallbacks, 1)
	if errors.Is(err, spill.ErrNoSpace) {
		atomic.AddInt64(&st.SpillNoSpaceFallbacks, 1)
	}
}

// addSharedSpillPass records one shared partition pass over n spilled
// sets: one dataset scan where the per-set path would have taken n.
func (st *ScanStats) addSharedSpillPass(n int) {
	if st == nil {
		return
	}
	atomic.AddInt64(&st.SharedSpillPasses, 1)
	atomic.AddInt64(&st.SpillPassesSaved, int64(n-1))
}

// labelSizeFallback re-counts one spilled set in memory after disk
// trouble, keeping the caller's full engine options — workers, pool,
// dense limit, stats metering and cancellation context — and clearing only
// the memory budget: the budget cannot be honored without the disk, the
// parallelism and accounting still can. The returned error can only be a
// context error (the fallback scan itself honors CountOptions.Ctx).
func labelSizeFallback(d *dataset.Dataset, s lattice.AttrSet, cap int, opts CountOptions) (size int, within bool, err error) {
	opts.MemBudget = 0
	return LabelSize(d, s, cap, opts)
}

// spillPartition is the shared partition phase: rows shard across workers,
// each worker streaming its chunk's keys into a private ShardWriter —
// columnar uint64 key blocks for the u64 format, per-row byte keys for the
// byte format. Partition files are append-shared, which is safe because
// flushes are whole records and group-by is order-blind. stop is polled
// once per key block; a fired context makes workers stop routing rows and
// close their shards — the caller then discards the (partial) runs via its
// deferred Cleanup and reports stop.err().
func spillPartition(w *spill.Writer, k *Keyer, cols [][]uint16, rows, workers int, format spillFormat, pool *VecPool, stop ctxStop) error {
	errs := make([]error, workers)
	workpool.RunChunks(rows, workers, func(wk, lo, hi int) {
		sw := w.Shard()
		if format == spillFmtU64 {
			keys := pool.Uint64(keyBlockRows, false)
			for blo := lo; blo < hi; blo += keyBlockRows {
				if stop.hit() {
					break
				}
				bhi := min(blo+keyBlockRows, hi)
				k.KeyBlock(cols, blo, bhi, keys)
				for _, key := range keys[:bhi-blo] {
					if key != InvalidKey {
						sw.AddU64(key)
					}
				}
			}
			pool.PutUint64(keys)
		} else {
			var buf []byte
			for blo := lo; blo < hi; blo += keyBlockRows {
				if stop.hit() {
					break
				}
				bhi := min(blo+keyBlockRows, hi)
				for r := blo; r < bhi; r++ {
					b, keyOK := k.AppendBytesRow(buf[:0], cols, r)
					buf = b
					if keyOK {
						sw.Add(b)
					}
				}
			}
		}
		errs[wk] = sw.Close()
	})
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return stop.err()
}

// countMerge folds the runs of a build-mode spill scan: runs merge into
// one map while the modeled merged footprint stays within the budget; the
// first run that would cross it drops the partial merge and the scan
// continues counting only (total size plus per-run sizes, which the
// merge-on-read representation needs). Prefix sums of the positive per-run
// sizes cross the budget iff the total does, so the materialize-or-stream
// outcome is independent of the (parallel) run completion order. A nil
// returned map means "stream": the result models over budget.
func countMerge[K comparable](
	ctx context.Context,
	count func(ctx context.Context, cap, workers int, emit func(run int, counts map[K]int) bool) (int, bool, error),
	workers int, budget, entry int64, runSizes []int,
) (merged map[K]int, size int, err error) {
	merged = make(map[K]int)
	over := false
	size, _, err = count(ctx, -1, workers, func(run int, counts map[K]int) bool {
		runSizes[run] = len(counts)
		if !over {
			if int64(len(merged)+len(counts))*entry > budget {
				over, merged = true, nil
			} else {
				for key, c := range counts {
					merged[key] = c // runs are key-disjoint: plain inserts
				}
			}
		}
		return true
	})
	return merged, size, err
}

// buildPCSpill is the external-memory BuildPC kernel: bit-identical to the
// in-memory kernels, with grouping state bounded by the budget instead of
// the key space. When the counted result models within the budget it
// materializes as an ordinary map PC (one disk pass); otherwise the PC
// retains the on-disk runs and serves lookups merge-on-read. Disk trouble
// falls back to the in-memory kernel, trading the budget for correctness;
// a fired CountOptions.Ctx instead aborts the build with the typed context
// error — cancellation is a caller decision, never a degradation.
func buildPCSpill(k *Keyer, cols [][]uint16, rows, workers, runs int, format spillFormat, opts CountOptions) (*PC, error) {
	pc, err := buildPCSpillScan(k, cols, rows, workers, runs, format, opts)
	if err == nil {
		return pc, nil
	}
	if isCtxErr(err) {
		return nil, err
	}
	opts.Stats.addSpillFallbackErr(err)
	stop := opts.stop()
	if format == spillFmtU64 {
		pc = buildPCMap(k, cols, rows, workers, stop)
	} else {
		pc = buildPCBytes(k, cols, rows, workers, stop)
	}
	if cerr := stop.err(); cerr != nil {
		return nil, cerr
	}
	return pc, nil
}

func buildPCSpillScan(k *Keyer, cols [][]uint16, rows, workers, runs int, format spillFormat, opts CountOptions) (pc *PC, err error) {
	w, err := spill.NewWriter(spill.Config{
		RecWidth: format.recWidth(k),
		Runs:     runs,
		Dir:      opts.SpillDir,
		Pool:     opts.Pool,
		FS:       opts.FS,
	})
	if err != nil {
		return nil, err
	}
	// Cleanup runs on every exit — success, error, cancellation and panic
	// alike — except when the result keeps the runs for merge-on-read
	// reading (the spilledPC then owns the writer and its directory).
	keep := false
	defer func() {
		if !keep {
			w.Cleanup()
		}
	}()
	stop := opts.stop()
	if err := spillPartition(w, k, cols, rows, workers, format, opts.Pool, stop); err != nil {
		return nil, err
	}

	countWorkers := workpool.Resolve(workers, runs)
	entry := format.entryBytes(k)
	runSizes := make([]int, runs)
	pc = &PC{keyer: k}
	size, materialized, err := countMergeInto(opts.Ctx, pc, w, format, workers, opts.MemBudget, entry, runSizes)
	if err != nil {
		return nil, err
	}
	opts.Stats.addSpill(w.Stats(), format, countWorkers)
	if materialized {
		return pc, nil
	}
	keep = true
	pc.sp = newSpilledPC(w, k, format, size, runSizes, opts.MemBudget, opts.Stats)
	return pc, nil
}

// countMergeInto runs countMerge over w's runs in its record format and,
// when the merged counts model within the budget, stores them in pc —
// frozen into the sorted layout for uint64 keys — and reports
// materialized. Otherwise pc is untouched and the caller keeps the runs.
func countMergeInto(ctx context.Context, pc *PC, w *spill.Writer, format spillFormat, workers int, budget, entry int64, runSizes []int) (size int, materialized bool, err error) {
	if format == spillFmtU64 {
		m, size, err := countMerge(ctx, w.CountRunsU64Ctx, workers, budget, entry, runSizes)
		if err == nil && m != nil {
			pc.u = sortedFromMap(m)
		}
		return size, m != nil, err
	}
	m, size, err := countMerge(ctx, w.CountRunsCtx, workers, budget, entry, runSizes)
	if err == nil && m != nil {
		pc.s = m
	}
	return size, m != nil, err
}

// labelSizeSpill is the external-memory LabelSize kernel: exactly the
// sequential cap-abort contract, with peak memory bounded by one run's map
// per counting worker instead of the distinct-key count. A non-nil error
// is either disk trouble — the caller falls back to an in-memory scan —
// or a context error, which the caller propagates instead.
func labelSizeSpill(k *Keyer, cols [][]uint16, rows, workers, runs int, format spillFormat, opts CountOptions, cap int) (size int, within bool, err error) {
	w, err := spill.NewWriter(spill.Config{
		RecWidth: format.recWidth(k),
		Runs:     runs,
		Dir:      opts.SpillDir,
		Pool:     opts.Pool,
		FS:       opts.FS,
	})
	if err != nil {
		return 0, false, err
	}
	// Deferred before anything else so the run files are removed on
	// success, cap-abort, error, cancellation and panic alike.
	defer w.Cleanup()
	if err := spillPartition(w, k, cols, rows, workers, format, opts.Pool, opts.stop()); err != nil {
		return 0, false, err
	}
	if format == spillFmtU64 {
		size, within, err = w.CountRunsU64Ctx(opts.Ctx, cap, workers, nil)
	} else {
		size, within, err = w.CountRunsCtx(opts.Ctx, cap, workers, nil)
	}
	if err != nil {
		return 0, false, err
	}
	opts.Stats.addSpill(w.Stats(), format, workpool.Resolve(workers, runs))
	return size, within, nil
}

// sharedSpillBufShare is the flush-buffer budget one partition shard of a
// shared pass may hold across every spilled set: half the memory budget
// split over the scan workers. The other half stays free for the counting
// phase that follows (one run map per count worker, the same bound the
// per-set path keeps), so N sets' live flush buffers plus one counting map
// still fit the budget.
func sharedSpillBufShare(budget int64, workers int) int64 {
	if workers < 1 {
		workers = 1
	}
	return budget / 2 / int64(workers)
}

// labelSizesSpilledShared sizes all spilled sets of a frontier off ONE
// dataset pass: a MultiWriter multiplexes every set's partitioned records
// into that set's own run files (byte-identical to the per-set path's
// runs), then each set's key-disjoint runs are counted K-way in frontier
// order exactly as labelSizeSpill counts them — same cap-abort, same
// stats, same results. Disk trouble stays per set: a failed target (run
// creation, partition write or run count) degrades only that set to the
// in-memory fallback while its siblings' on-disk results stand. A fired
// CountOptions.Ctx aborts the whole pass with the typed context error
// instead — cancellation is never degraded around.
func labelSizesSpilledShared(d *dataset.Dataset, sets []lattice.AttrSet, cap int, opts CountOptions, spilled []spilledSet, sizes []int, within []bool) error {
	rows := d.NumRows()
	cols := datasetCols(d)
	workers := opts.scanWorkers(rows)
	cfgs := make([]spill.Config, len(spilled))
	for i, sp := range spilled {
		cfgs[i] = spill.Config{
			RecWidth: sp.format.recWidth(sp.k),
			Runs:     sp.runs,
			Dir:      opts.SpillDir,
			Pool:     opts.Pool,
			FS:       opts.FS,
		}
	}
	mw := spill.NewMultiWriter(cfgs, sharedSpillBufShare(opts.MemBudget, workers))
	// Deferred before the pass so every target's run files are removed on
	// success, cap-abort, error, cancellation and panic alike; counted
	// targets are additionally cleaned eagerly below to cap the peak disk
	// footprint.
	defer mw.Cleanup()
	opts.Stats.addSharedSpillPass(len(spilled))
	stop := opts.stop()
	sharedSpillPartition(mw, spilled, cols, rows, workers, opts.Pool, stop)
	if err := stop.err(); err != nil {
		return err
	}
	for i, sp := range spilled {
		sz, w, serr := countSharedTarget(mw, i, sp, cap, workers, opts)
		if serr != nil {
			if isCtxErr(serr) {
				return serr
			}
			opts.Stats.addSpillFallbackErr(serr)
			sz, w, serr = labelSizeFallback(d, sets[sp.idx], cap, opts)
			if serr != nil {
				return serr
			}
		}
		sizes[sp.idx], within[sp.idx] = sz, w
		mw.CleanupTarget(i)
	}
	return nil
}

// sharedSpillPartition is the shared partition phase: one blocked,
// worker-sharded pass computes every spilled set's keys per cache-resident
// row block — columnar KeyBlock for uint64 sets, per-row byte keys for the
// rest — and routes them through a per-worker MultiShard. A set that
// failed stops costing key computation on every shard; group-by is
// order-blind, so interleaving sets per block changes nothing downstream.
// stop is polled once per row block, like the sizing kernel's workers.
func sharedSpillPartition(mw *spill.MultiWriter, spilled []spilledSet, cols [][]uint16, rows, workers int, pool *VecPool, stop ctxStop) {
	needU64 := false
	for _, sp := range spilled {
		if sp.format == spillFmtU64 {
			needU64 = true
			break
		}
	}
	workpool.RunChunks(rows, workers, func(_, lo, hi int) {
		ms := mw.Shard()
		defer ms.Close()
		var keys []uint64
		if needU64 {
			keys = pool.Uint64(keyBlockRows, false)
			defer pool.PutUint64(keys)
		}
		var buf []byte
		for blo := lo; blo < hi; blo += keyBlockRows {
			if stop.hit() {
				return
			}
			bhi := min(blo+keyBlockRows, hi)
			for si := range spilled {
				sp := &spilled[si]
				if ms.Failed(si) {
					continue
				}
				if sp.format == spillFmtU64 {
					sp.k.KeyBlock(cols, blo, bhi, keys)
					for _, key := range keys[:bhi-blo] {
						if key != InvalidKey {
							ms.AddU64(si, key)
						}
					}
				} else {
					for r := blo; r < bhi; r++ {
						b, keyOK := sp.k.AppendBytesRow(buf[:0], cols, r)
						buf = b
						if keyOK {
							ms.Add(si, b)
						}
					}
				}
			}
		}
	})
}

// errSpillTarget marks a shared-pass target whose writer never came up and
// recorded no more specific error; the caller treats it as disk trouble.
var errSpillTarget = errors.New("core: shared spill target unavailable")

// countSharedTarget counts one shared-pass target's runs with the sizing
// cap — identical to labelSizeSpill's counting half. A non-nil error is
// the disk trouble recorded against the target (the caller falls back to
// the in-memory scan for that one set) or a context error from the count
// phase, which the caller propagates instead.
func countSharedTarget(mw *spill.MultiWriter, i int, sp spilledSet, cap, workers int, opts CountOptions) (size int, within bool, err error) {
	w := mw.Writer(i)
	if err := mw.Err(i); err != nil {
		return 0, false, err
	}
	if w == nil {
		return 0, false, errSpillTarget
	}
	if sp.format == spillFmtU64 {
		size, within, err = w.CountRunsU64Ctx(opts.Ctx, cap, workers, nil)
	} else {
		size, within, err = w.CountRunsCtx(opts.Ctx, cap, workers, nil)
	}
	if err != nil {
		return 0, false, err
	}
	opts.Stats.addSpill(w.Stats(), sp.format, workpool.Resolve(workers, sp.runs))
	return size, within, nil
}
