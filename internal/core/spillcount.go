package core

import (
	"context"
	"errors"
	"slices"
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
// set here: the scan hash-partitions its keys of W words into K on-disk
// runs, each shard flushing its buffered keys sorted with the counts of
// equal keys summed, so a run holds a key at most once per flush of each
// shard; runs are counted by sorting them — K-way parallel across
// workers, since runs hold disjoint keys — and counts merge across runs
// with the exact cap-abort of label sizing (per-run counts are final and
// the distinct total is a monotone sum). A run's count state is its
// entries at 8W + 4 bytes each plus as much sort scratch, 24 bytes for a
// one-word key and 16W + 8 for a wider one, held within the worker's
// budget share (countShare): the count sums its buffer in place each time
// it fills, and grows it only to twice a run's distinct keys or to the
// run's entries. A one-word run within its model (56 bytes a distinct
// key) therefore stays within the share however often its keys repeat.
// Wider keys are priced per row, so a run holds about rows/K entries and
// its state stays within (16W + 8)/(8W + 64) of the share: within it
// through W = 7, and 1.5x at W = 22, the widest key (64 attributes of
// 65,534 values, three to a word). One path serves every key width, and
// results are bit-identical to the in-memory kernels for every worker
// count and key width (spillcount_test.go).
//
// Builds are budget-bounded end to end: when the counted result itself
// models within the budget it is materialized as an ordinary in-memory PC,
// and otherwise each counted partition run is written once as a sorted run
// of (key, count) entries (spill.Runs) and its partition file deleted; the
// PC keeps the sorted runs and serves Size/LookupValsCtx/EachCtx from them
// (merge-on-read, spilledpc.go) — the scan's careful budget is no longer
// blown by the result map. Sizing shares the partition phase (spillScan):
// LabelSizes keeps a capped set in memory unless even its cap+1 keys model
// over the budget, and sizes a set still over budget by counting its
// partition runs for their distinct total alone (labelSizeSpilled).

// spillEntryBytesU64 is the per-distinct-key estimate of the one-word
// map kernel: bucket share and bookkeeping, beside the 8-byte key. It
// models the build's count maps, so it decides spilling and run counts;
// a merge-on-read index's run cache charges the sorted layout's real
// 8W + 4 bytes an entry instead (spilledpc.go).
const spillEntryBytesU64 = 48

// spillEntryBytes is the per-distinct-key estimate of the record tally
// of wider keys (dense.go), beside the 8W key bytes: string header and
// index slot, map bucket share and bookkeeping, and the count slot.
const spillEntryBytes = 64

// maxSpillRuns caps the partition fan-out (file handles and write
// buffers); beyond it a run may exceed the budget, which degrades peak
// memory gracefully rather than failing.
const maxSpillRuns = 512

// entryBytes returns the per-distinct-key in-memory cost model of k's
// count map: 56 bytes for a one-word key, 8W + 64 for a wider one.
func (k *Keyer) entryBytes() int64 {
	if k.Words() == 1 {
		return 8 + spillEntryBytesU64
	}
	return int64(8*k.Words() + spillEntryBytes)
}

// mapFootprint models the map state of a group-by over rows rows beyond
// the dense tier: one entry per distinct key, at most min(radix, rows) of
// them — and at most cap+1 when cap >= 0, since a capped accumulator stops
// there — priced with k's per-entry model. ok is false for a
// dense-keyable set: its flat state is bounded by the dense slot limit,
// not the row count, so it never spills.
func (o CountOptions) mapFootprint(k *Keyer, rows, cap int) (fp int64, ok bool) {
	if _, dense := denseRadix(k, rows, o.denseLimit()); dense {
		return 0, false
	}
	distinct := rows
	if cap >= 0 && cap < distinct {
		distinct = cap + 1
	}
	if r, oneWord := k.Radix(); oneWord && r < uint64(distinct) {
		distinct = int(r) // the key space itself bounds the map
	}
	return int64(distinct) * k.entryBytes(), true
}

// spillFor decides whether a group-by must spill under the options' memory
// budget, and the run count K that keeps one run's estimated count state
// within each count worker's share of the budget — parallel run counting
// holds one run's entries per worker, so K scales with the worker count
// and the total stays near the budget. The decision is deterministic from (rows,
// keyer, budget, workers), so every entry point picks the same tier for
// the same inputs — the same property the dense/sorted selection has.
func (o CountOptions) spillFor(k *Keyer, rows, countWorkers int) (runs int, ok bool) {
	if o.MemBudget <= 0 || rows == 0 {
		return 0, false
	}
	fp, ok := o.mapFootprint(k, rows, -1)
	if !ok || fp <= o.MemBudget {
		return 0, false
	}
	share := countShare(o.MemBudget, countWorkers)
	runs = int((fp + share - 1) / share)
	if runs > maxSpillRuns {
		runs = maxSpillRuns
	}
	return runs, true
}

// countShare is each count worker's share of budget: the memory one
// run's count state may take, which spillFor sizes K against and the
// count holds its buffers within (spill.Config.Share).
func countShare(budget int64, countWorkers int) int64 {
	return max(budget/int64(max(countWorkers, 1)), 1)
}

// addSpill accumulates one spilled scan's counters: the partition
// writer's and the bytes of the sorted runs a spilled build kept. Updates
// are atomic so scans sharing a ScanStats may run on concurrent goroutines
// (the label evaluation phase scores candidates in parallel).
func (st *ScanStats) addSpill(s spill.Stats, sortedBytes int64, countWorkers int) {
	if st == nil {
		return
	}
	atomic.AddInt64(&st.Spilled, 1)
	atomic.AddInt64(&st.SpillRuns, int64(s.Runs))
	if countWorkers > 1 {
		atomic.AddInt64(&st.SpillParallelRuns, int64(s.Runs))
	}
	atomic.AddInt64(&st.SpillBytes, s.BytesWritten+sortedBytes)
	atomicMax(&st.SpillMaxRunEntries, int64(s.MaxRunEntries))
	atomicMax(&st.SpillMaxCountBytes, s.MaxCountBytes)
}

// atomicMax raises *p to v unless it already holds at least v.
func atomicMax(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if v <= cur || atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

// addSpillFallbackErr records one disk-trouble in-memory fallback: a spill
// scan that could not complete (writer creation, partition write or run
// count failed) with err and was re-run with the unbounded in-memory
// kernel. A fallback caused by disk exhaustion (err wraps
// spill.ErrNoSpace, i.e. the filesystem reported ENOSPC) additionally bumps
// the dedicated no-space counter, so operators can tell a full disk from
// flaky I/O in ScanStats without parsing error strings. Context
// cancellations never reach here — callers propagate them instead of
// falling back.
func (st *ScanStats) addSpillFallbackErr(err error) {
	if st == nil {
		return
	}
	atomic.AddInt64(&st.SpillFallbacks, 1)
	if errors.Is(err, spill.ErrNoSpace) {
		atomic.AddInt64(&st.SpillNoSpaceFallbacks, 1)
	}
}

// spillPartition is a spilled scan's partition phase: rows shard across
// workers, each worker streaming its chunk's keys into a private
// ShardWriter — from columnar key blocks for one-word keys, row by row
// for wider ones. Partition files are append-shared, which is safe
// because flushes are whole frames and group-by is order-blind. stop is
// polled once per key block; a fired context makes workers stop routing
// rows and close their shards — the caller then discards the (partial)
// runs via its deferred Cleanup and reports stop.err().
func spillPartition(w *spill.Writer, k *Keyer, cols [][]uint16, rows, workers int, pool *VecPool, stop ctxStop) error {
	errs := make([]error, workers)
	workpool.RunChunks(rows, workers, func(wk, lo, hi int) {
		sw := w.Shard()
		if k.Words() == 1 {
			keys := pool.Uint64(keyBlockRows, false)
			for blo := lo; blo < hi; blo += keyBlockRows {
				if stop.hit() {
					break
				}
				bhi := min(blo+keyBlockRows, hi)
				k.KeyBlock(cols, blo, bhi, keys)
				for i, key := range keys[:bhi-blo] {
					if key != InvalidKey {
						sw.Add(keys[i:i+1], 1)
					}
				}
			}
			pool.PutUint64(keys)
		} else {
			var key []uint64
			for blo := lo; blo < hi; blo += keyBlockRows {
				if stop.hit() {
					break
				}
				for r := blo; r < min(blo+keyBlockRows, hi); r++ {
					var ok bool
					if key, ok = k.appendKeyRow(key[:0], cols, r); ok {
						sw.Add(key, 1)
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

// buildPCSpill is the external-memory BuildPC kernel: bit-identical to the
// in-memory kernels, with grouping state bounded by the budget instead of
// the key space. When the counted result models within the budget it
// materializes as an ordinary in-memory PC (one disk pass); otherwise the
// PC keeps its counted runs on disk, sorted, and serves lookups
// merge-on-read. Disk trouble — a failed partition or sorted-run write
// alike — falls back to the in-memory kernel, trading the budget for
// correctness; a fired CountOptions.Ctx instead aborts the build with the
// typed context error — cancellation is a caller decision, never a
// degradation.
func buildPCSpill(k *Keyer, cols [][]uint16, rows, workers, runs int, opts CountOptions) (*PC, error) {
	pc, err := buildPCSpillScan(k, cols, rows, workers, runs, opts)
	if err == nil {
		return pc, nil
	}
	if isCtxErr(err) {
		return nil, err
	}
	opts.Stats.addSpillFallbackErr(err)
	stop := opts.stop()
	pc = buildPCSorted(k, cols, rows, workers, stop)
	if cerr := stop.err(); cerr != nil {
		return nil, cerr
	}
	return pc, nil
}

// buildPCSpillScan is a spilled build's scan: partition, then
// countAndSeal; a spilled result keeps only the sorted runs it wrote.
func buildPCSpillScan(k *Keyer, cols [][]uint16, rows, workers, runs int, opts CountOptions) (pc *PC, err error) {
	err = spillScan(k, cols, rows, workers, runs, opts, func(w *spill.Writer) error {
		var cerr error
		if pc, cerr = countAndSeal(w, k, workers, opts.MemBudget, opts); cerr != nil {
			return cerr
		}
		var sorted int64
		if pc.sp != nil {
			sorted = pc.sp.runs.Bytes()
		}
		opts.Stats.addSpill(w.Stats(), sorted, workpool.Resolve(workers, runs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pc, nil
}

// spillScan is the partition phase every spilled scan shares: it
// partitions k's keys into runs on-disk runs and hands the writer to
// finish, which counts them. The partition runs are removed on every exit
// — success, error, cancellation and panic alike.
func spillScan(k *Keyer, cols [][]uint16, rows, workers, runs int, opts CountOptions, finish func(w *spill.Writer) error) error {
	w, err := spill.NewWriter(spill.Config{
		Words: k.Words(),
		Runs:  runs,
		Share: countShare(opts.MemBudget, workers),
		Dir:   opts.SpillDir,
		Pool:  opts.Pool,
		FS:    opts.FS,
	})
	if err != nil {
		return err
	}
	defer w.Cleanup()
	if err := spillPartition(w, k, cols, rows, workers, opts.Pool, opts.stop()); err != nil {
		return err
	}
	return finish(w)
}

// labelSizeSpilled sizes one set whose capped sizing state models over
// opts.MemBudget: a spilled build's partition phase, then a count of the
// partition runs that keeps only the distinct total — no sorted run is
// written — and stops once the total passes cap. Runs hold disjoint keys,
// so the running total is exact and the cap-abort is the sequential
// loop's. Disk trouble falls back to the capped in-memory kernel, metered
// as a spill fallback; a fired opts.Ctx returns the typed context error.
func labelSizeSpilled(d *dataset.Dataset, s lattice.AttrSet, cap int, opts CountOptions) (size int, within bool, err error) {
	rows := d.NumRows()
	k := NewKeyer(d, s)
	workers := opts.scanWorkers(rows)
	// Over budget at the cap is over budget uncapped, so spillFor spills.
	runs, _ := opts.spillFor(k, rows, workers)
	err = spillScan(k, datasetCols(d), rows, workers, runs, opts, func(w *spill.Writer) error {
		n := 0 // emit calls are serialized
		if err := w.CountRunsCtx(opts.Ctx, workers, func(_ int, _ []uint64, counts []int32) bool {
			n += len(counts)
			return cap < 0 || n <= cap
		}); err != nil {
			return err
		}
		opts.Stats.addSpill(w.Stats(), 0, workpool.Resolve(workers, runs))
		size, within = capSize(n, cap)
		return nil
	})
	if err == nil || isCtxErr(err) {
		return size, within, err
	}
	opts.Stats.addSpillFallbackErr(err)
	opts.MemBudget = 0
	return LabelSize(d, s, cap, opts)
}

// countAndSeal is the count-and-write step of a spilled build, and of a
// merge that must re-partition: it counts w's partition runs K-way and
// turns them into the result. While the counted keys model within budget
// (k's map model, so the outcome matches the decision to spill), each
// counted run is held in memory; the run that crosses the budget writes
// every held run, itself and each later run to fresh sorted Runs. Prefix
// sums of the per-run sizes cross the budget iff the total does, so the
// materialize-or-stream outcome is independent of the (parallel) run
// completion order. Each partition file is dropped once counted. A result
// within budget materializes as an in-memory sorted PC; otherwise the PC
// serves the sorted runs merge-on-read. opts.Ctx is polled before every
// sorted-run write as well as by the count. On error nothing is left on
// disk but w's files, which the caller cleans up.
func countAndSeal(w *spill.Writer, k *Keyer, workers int, budget int64, opts CountOptions) (*PC, error) {
	words := k.Words()
	newRuns := func() (*spill.Runs, error) {
		return spill.NewRuns(opts.SpillDir, words, w.NumRuns(), opts.FS)
	}
	keys, counts, rs, runSizes, err := sealRuns(opts.Ctx, w, words, workers, budget, k.entryBytes(), newRuns)
	if err != nil {
		return nil, err
	}
	pc := &PC{keyer: k}
	if rs == nil {
		pc.u = sortedFrom(keys, counts, words)
		return pc, nil
	}
	size := 0
	for _, n := range runSizes {
		size += n
	}
	pc.sp = newSpilledPC(rs, k, size, runSizes, budget, opts.Stats)
	return pc, nil
}

// sealRuns counts w's runs of words-word keys and writes each counted run,
// already sorted, as a sorted run. It returns the counted entries, run by
// run, when they fit the budget, and the sorted runs with their sizes
// otherwise.
func sealRuns(ctx context.Context, w *spill.Writer, words, workers int, budget, entry int64,
	newRuns func() (*spill.Runs, error)) (keys []uint64, counts []int32, rs *spill.Runs, runSizes []int, err error) {
	runSizes = make([]int, w.NumRuns())
	type heldRun struct {
		keys   []uint64
		counts []int32
	}
	held := make([]heldRun, w.NumRuns())
	distinct := 0
	var werr error
	seal := func(run int, keys []uint64, counts []int32) {
		if ctx != nil && werr == nil {
			werr = ctx.Err()
		}
		if werr != nil {
			return
		}
		rw := rs.RunWriter(run)
		for i, c := range counts {
			rw.Add(keys[i*words:(i+1)*words], int(c))
		}
		if err := rw.Close(); err != nil && werr == nil {
			werr = err
		}
	}
	// emit calls are serialized, so the closure state needs no lock.
	err = w.CountRunsCtx(ctx, workers, func(run int, ks []uint64, cs []int32) bool {
		w.DropRun(run)
		runSizes[run] = len(cs)
		distinct += len(cs)
		if rs == nil && int64(distinct)*entry > budget {
			if rs, werr = newRuns(); werr != nil {
				return false
			}
			for r, h := range held {
				if len(h.counts) > 0 {
					seal(r, h.keys, h.counts)
				}
			}
			held = nil
		}
		if rs != nil {
			seal(run, ks, cs)
		} else {
			held[run] = heldRun{slices.Clone(ks), slices.Clone(cs)}
		}
		return werr == nil
	})
	if err == nil {
		err = werr
	}
	if err != nil {
		if rs != nil {
			rs.Cleanup()
		}
		return nil, nil, nil, nil, err
	}
	if rs != nil {
		return nil, nil, rs, runSizes, nil
	}
	keys = make([]uint64, 0, words*distinct)
	counts = make([]int32, 0, distinct)
	for _, h := range held {
		keys = append(keys, h.keys...)
		counts = append(counts, h.counts...)
	}
	return keys, counts, nil, runSizes, nil
}
