package core

import (
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
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
// and otherwise each counted partition run is written once as a sorted run
// of (key, count) entries (spill.Runs) and its partition file deleted; the
// PC keeps the sorted runs and serves Size/LookupValsCtx/EachCtx from them
// (merge-on-read, spilledpc.go) — the scan's careful budget is no longer
// blown by the result map. Sizing shares the partition phase (spillScan):
// LabelSizes keeps a capped set in memory unless even its cap+1 keys model
// over the budget, and sizes a set still over budget by counting its
// partition runs for their distinct total alone (labelSizeSpilled).

// spillFormat names the fixed-width record encoding a spilled set uses.
type spillFormat uint8

const (
	// spillFmtBytes spills 2-bytes-per-member byte-string records (key
	// overflows uint64) counted into map[string]int.
	spillFmtBytes spillFormat = iota
	// spillFmtU64 spills fixed-width 8-byte little-endian uint64 records
	// (mixed-radix key fits uint64) counted into map[uint64]int; a
	// materialized result, every sorted run and every cached run hold the
	// keys in ascending order.
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

// recWidth returns the on-disk record width of a format for a keyer.
func (f spillFormat) recWidth(k *Keyer) int {
	if f == spillFmtU64 {
		return spillRecWidthU64
	}
	return 2 * len(k.members)
}

// keyWidth returns the key width of a format's sorted runs.
func (f spillFormat) keyWidth(k *Keyer) int {
	if f == spillFmtU64 {
		return spill.U64Keys
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

// mapFootprint models the map state of a group-by over rows rows beyond
// the dense tier, and the record format it would spill with: one entry per
// distinct key, at most min(radix, rows) of them — and at most cap+1 when
// cap >= 0, since a capped accumulator stops there — priced with the
// format's per-entry model. ok is false for a dense-keyable set: its flat
// state is bounded by the dense slot limit, not the row count, so it never
// spills.
func (o CountOptions) mapFootprint(k *Keyer, rows, cap int) (fp int64, format spillFormat, ok bool) {
	if _, dense := denseRadix(k, rows, o.denseLimit()); dense {
		return 0, spillFmtBytes, false
	}
	distinct := rows
	if cap >= 0 && cap < distinct {
		distinct = cap + 1
	}
	format = spillFmtBytes
	if r, fits := k.Radix(); fits {
		format = spillFmtU64
		if r < uint64(distinct) {
			distinct = int(r) // the key space itself bounds the map
		}
	}
	return int64(distinct) * format.entryBytes(k), format, true
}

// spillFor decides whether a group-by must spill under the options' memory
// budget, which record format it spills with, and the run count K that
// keeps one run's estimated map within each count worker's share of the
// budget — parallel run counting holds one live run map per worker, so K
// scales with the worker count and the total stays near the budget. The
// decision is deterministic from (rows, keyer, budget, workers), so every
// entry point picks the same tier for the same inputs — the same property
// the dense/map/bytes selection has.
func (o CountOptions) spillFor(k *Keyer, rows, countWorkers int) (runs int, format spillFormat, ok bool) {
	if o.MemBudget <= 0 || rows == 0 {
		return 0, spillFmtBytes, false
	}
	fp, format, ok := o.mapFootprint(k, rows, -1)
	if !ok || fp <= o.MemBudget {
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

// addSpill accumulates one spilled scan's counters: the partition
// writer's and the bytes of the sorted runs a spilled build kept. Updates
// are atomic so scans sharing a ScanStats may run on concurrent goroutines
// (the label evaluation phase scores candidates in parallel).
func (st *ScanStats) addSpill(s spill.Stats, sortedBytes int64, format spillFormat, countWorkers int) {
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
	atomic.AddInt64(&st.SpillBytes, s.BytesWritten+sortedBytes)
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

// spillPartition is a spilled scan's partition phase: rows shard across
// workers, each worker streaming its chunk's keys into a private
// ShardWriter — columnar uint64 key blocks for the u64 format, per-row
// byte keys for the byte format. Partition files are append-shared, which
// is safe because flushes are whole records and group-by is order-blind.
// stop is polled once per key block; a fired context makes workers stop
// routing rows and close their shards — the caller then discards the
// (partial) runs via its deferred Cleanup and reports stop.err().
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

// buildPCSpillScan is a spilled build's scan: partition, then
// countAndSeal; a spilled result keeps only the sorted runs it wrote.
func buildPCSpillScan(k *Keyer, cols [][]uint16, rows, workers, runs int, format spillFormat, opts CountOptions) (pc *PC, err error) {
	err = spillScan(k, cols, rows, workers, runs, format, opts, func(w *spill.Writer) error {
		var cerr error
		if pc, cerr = countAndSeal(w, k, format, workers, opts.MemBudget, opts); cerr != nil {
			return cerr
		}
		var sorted int64
		if pc.sp != nil {
			sorted = pc.sp.runs.Bytes()
		}
		opts.Stats.addSpill(w.Stats(), sorted, format, workpool.Resolve(workers, runs))
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
func spillScan(k *Keyer, cols [][]uint16, rows, workers, runs int, format spillFormat, opts CountOptions, finish func(w *spill.Writer) error) error {
	w, err := spill.NewWriter(spill.Config{
		RecWidth: format.recWidth(k),
		Runs:     runs,
		Dir:      opts.SpillDir,
		Pool:     opts.Pool,
		FS:       opts.FS,
	})
	if err != nil {
		return err
	}
	defer w.Cleanup()
	if err := spillPartition(w, k, cols, rows, workers, format, opts.Pool, opts.stop()); err != nil {
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
	runs, format, _ := opts.spillFor(k, rows, workers)
	err = spillScan(k, datasetCols(d), rows, workers, runs, format, opts, func(w *spill.Writer) error {
		n := 0 // emit calls are serialized
		add := func(distinct int) bool { n += distinct; return cap < 0 || n <= cap }
		var cerr error
		if format == spillFmtU64 {
			cerr = w.CountRunsU64Ctx(opts.Ctx, workers, func(_ int, m map[uint64]int) bool { return add(len(m)) })
		} else {
			cerr = w.CountRunsCtx(opts.Ctx, workers, func(_ int, m map[string]int) bool { return add(len(m)) })
		}
		if cerr != nil {
			return cerr
		}
		opts.Stats.addSpill(w.Stats(), 0, format, workpool.Resolve(workers, runs))
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
// (the format's map model, so the outcome matches the decision to spill),
// each counted run is held in memory; the run that crosses the budget
// writes every held run, itself and each later run to fresh sorted Runs.
// Prefix sums of the per-run sizes cross the budget iff the total does, so
// the materialize-or-stream outcome is independent of the (parallel) run
// completion order. Each partition file is dropped once counted. A
// result within budget materializes as an in-memory PC (sorted for uint64
// keys); otherwise the PC serves the sorted runs merge-on-read. opts.Ctx
// is polled before every sorted-run write as well as by the count. On
// error nothing is left on disk but w's files, which the caller cleans up.
func countAndSeal(w *spill.Writer, k *Keyer, format spillFormat, workers int, budget int64, opts CountOptions) (*PC, error) {
	pc := &PC{keyer: k}
	newRuns := func() (*spill.Runs, error) {
		return spill.NewRuns(opts.SpillDir, format.keyWidth(k), w.NumRuns(), opts.FS)
	}
	entry := format.entryBytes(k)
	var (
		rs       *spill.Runs
		runSizes []int
		err      error
	)
	if format == spillFmtU64 {
		var keys []uint64
		var counts []int32
		keys, counts, rs, runSizes, err = sealRuns(opts.Ctx, w, w.CountRunsU64Ctx, writeRunU64, workers, budget, entry, newRuns)
		if err == nil && rs == nil {
			pc.u = sortedFrom(keys, counts)
		}
	} else {
		var keys []string
		var counts []int32
		var bw byteRunWriter
		keys, counts, rs, runSizes, err = sealRuns(opts.Ctx, w, w.CountRunsCtx, bw.write, workers, budget, entry, newRuns)
		if err == nil && rs == nil {
			pc.s = make(map[string]int, len(keys))
			for i, key := range keys {
				pc.s[key] = int(counts[i])
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if rs != nil {
		size := 0
		for _, n := range runSizes {
			size += n
		}
		pc.sp = newSpilledPC(rs, k, format, size, runSizes, budget, opts.Stats)
	}
	return pc, nil
}

// sealRuns is countAndSeal over one key type: count counts w's runs into
// maps of K, write sorts one run's entries and encodes them. It returns
// the counted entries, unsorted, when they fit the budget, and the sorted
// runs with their sizes otherwise.
func sealRuns[K comparable](
	ctx context.Context, w *spill.Writer,
	count func(ctx context.Context, workers int, emit func(run int, counts map[K]int) bool) error,
	write func(rw *spill.RunWriter, keys []K, counts []int32),
	workers int, budget, entry int64, newRuns func() (*spill.Runs, error),
) (keys []K, counts []int32, rs *spill.Runs, runSizes []int, err error) {
	runSizes = make([]int, w.NumRuns())
	type heldRun struct {
		keys   []K
		counts []int32
	}
	held := make([]heldRun, w.NumRuns())
	distinct := 0
	var werr error
	seal := func(run int, keys []K, counts []int32) {
		if ctx != nil && werr == nil {
			werr = ctx.Err()
		}
		if werr != nil {
			return
		}
		rw := rs.RunWriter(run)
		write(rw, keys, counts)
		if err := rw.Close(); err != nil && werr == nil {
			werr = err
		}
	}
	// emit calls are serialized, so the closure state needs no lock.
	err = count(ctx, workers, func(run int, m map[K]int) bool {
		ks := make([]K, 0, len(m))
		cs := make([]int32, 0, len(m))
		for key, c := range m {
			ks = append(ks, key)
			cs = append(cs, count32(c))
		}
		w.DropRun(run)
		runSizes[run] = len(ks)
		distinct += len(ks)
		if rs == nil && int64(distinct)*entry > budget {
			if rs, werr = newRuns(); werr != nil {
				return false
			}
			for r, h := range held {
				if len(h.keys) > 0 {
					seal(r, h.keys, h.counts)
				}
			}
			held = nil
		}
		if rs != nil {
			seal(run, ks, cs)
		} else {
			held[run] = heldRun{ks, cs}
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
	keys = make([]K, 0, distinct)
	counts = make([]int32, 0, distinct)
	for _, h := range held {
		keys = append(keys, h.keys...)
		counts = append(counts, h.counts...)
	}
	return keys, counts, nil, runSizes, nil
}

// writeRunU64 sorts one run's uint64 entries and encodes them.
func writeRunU64(rw *spill.RunWriter, keys []uint64, counts []int32) {
	sc := sortedFrom(keys, counts)
	for i, key := range sc.Keys {
		rw.AddU64(key, int(sc.Counts[i]))
	}
}

// byteRunWriter sorts and encodes byte-string runs, reusing its scratch
// across runs: countAndSeal's emit calls are serialized.
type byteRunWriter struct {
	prefix []uint64
	order  []int32
	key    []byte
}

// write orders one run's entries by key — a radix sort on each key's
// first eight bytes read big-endian, then a comparison sort of the rare
// keys that share them — and encodes them.
func (bw *byteRunWriter) write(rw *spill.RunWriter, keys []string, counts []int32) {
	bw.prefix, bw.order = bw.prefix[:0], bw.order[:0]
	var b [8]byte
	for i, key := range keys {
		b = [8]byte{}
		copy(b[:], key)
		bw.prefix = append(bw.prefix, binary.BigEndian.Uint64(b[:]))
		bw.order = append(bw.order, int32(i))
	}
	prefix, order := radixSort(bw.prefix, bw.order)
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && prefix[hi] == prefix[lo] {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], func(x, y int32) int { return strings.Compare(keys[x], keys[y]) })
		}
		lo = hi
	}
	for _, i := range order {
		bw.key = append(bw.key[:0], keys[i]...)
		rw.AddBytes(bw.key, int(counts[i]))
	}
}
