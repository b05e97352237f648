package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pcbl/internal/spill"
)

// spilledPC is the merge-on-read PC representation: a pattern-count index
// whose merged map modeled over CountOptions.MemBudget, so instead of
// materializing it the index retains its on-disk spill runs and serves the
// PC consumer surface (Size / LookupValsCtx / EachCtx) by streaming them.
// Size is precomputed during the build's count pass; EachCtx streams one
// run at a time; LookupValsCtx routes a key to the single run that can
// hold it (the same hash partition every occurrence took) and consults
// that run's counts.
//
// A run is read into memory whole, once per cache miss, by counting its
// records into a map of its distinct keys: byte-string runs are cached as
// that map[string]int, uint64 runs as the map frozen into the sorted
// layout (SortedCounts, looked up by binary search). Reads are
// budget-bounded: a pinned hot-run cache admits loaded runs while their
// cost fits the budget, and one floating slot holds the most recently
// loaded run beyond it, so peak read memory is roughly the budget plus
// one run, plus the map of the run being loaded. The cache charges what a
// run really holds — 12 bytes an entry for a sorted run, the map model
// for a byte run — not the 56-byte uint64 map model (spillEntryBytesU64
// plus the key) that decided, at build time, to spill and how many runs
// to write.
// So a uint64 index pins every run when its entries would fill up to 4.7
// budgets at the map model, and its lookups then read no run file at all.
//
// Locking model (a label is built once and consulted by many concurrent
// readers, so the read path must not serialize):
//
//   - The hot cache is an immutable snapshot behind an atomic pointer,
//     republished copy-on-write when a run is pinned. Loaded runs are
//     never mutated, so lookups that hit a pinned run take no lock at all
//     — the read-mostly fast path: one snapshot load and one binary search.
//   - A per-run load mutex serializes loading any one run, so concurrent
//     misses on the same run perform one file scan, while misses on
//     different runs load in parallel.
//   - A small admission mutex guards the floating slot and the hot-cost
//     accounting — the only remaining shared-write section, held for a few
//     pointer updates, never across I/O.
//   - A liveness RWMutex makes release atomic with run reads: loads hold
//     the read side across the released-check and the file scan, release
//     takes the write side before deleting the run files. A lookup racing
//     ReleaseSpill therefore either completes or fails with the documented
//     "use of a released spilled PC" panic — never a raw file-read error.
//
// Run reads can fail — an I/O error, or a checksum mismatch on a corrupted
// frame — and a failed read must never become a wrong count: the internal
// read paths return errors (lookupValsE / eachE), with one bounded retry
// per load so a transient fault recovers invisibly. Every failed attempt
// and every retry is metered (SpillReadStats, and ScanStats when one is
// attached). Every PC query method returns the error; only
// Label.Estimate/EstimateRow, which take no error, panic on it.
//
// No lock is held while user callbacks run: EachCtx fetches each run and
// then iterates it lock-free, so the callback may freely probe the same
// PC.
//
// The on-disk runs live until ReleaseSpill is called; a GC cleanup is
// attached as a safety net so an unreferenced spilled PC still removes its
// private temp directory. Using a released spilled PC panics.
type spilledPC struct {
	w        *spill.Writer
	keyer    *Keyer
	u64      bool // uint64 record format (vs byte-string)
	size     int  // total distinct patterns, exact
	runSizes []int
	budget   int64 // pinned hot-run cache budget

	liveMu   sync.RWMutex // read side: run-file access; write side: release
	released atomic.Bool
	cleanup  runtime.Cleanup

	stats spillReadStats
	// scanStats, when non-nil, is the build's shared ScanStats: read
	// errors and retries are mirrored into its atomic Spill* counters.
	scanStats *ScanStats

	ru *runStore[*SortedCounts]
	rs *runStore[map[string]int]
}

// spillReadStats counts read-path events on a spilled PC; the atomic
// counters are safe to bump from the lock-free fast path.
type spillReadStats struct {
	hotHits    atomic.Int64
	floatHits  atomic.Int64
	runLoads   atomic.Int64
	readErrors atomic.Int64
	retries    atomic.Int64
}

// SpillReadStats is a point-in-time snapshot of a spilled PC's read-path
// counters: lock-free pinned-run hits, floating-slot hits, run-file loads
// (each load is one full scan of a run file), failed read attempts, and
// bounded retries of failed attempts. A ReadErrors count equal to Retries
// means every failure recovered on retry; ReadErrors beyond that surfaced
// to callers as errors.
type SpillReadStats struct {
	HotHits      int64
	FloatingHits int64
	RunLoads     int64
	ReadErrors   int64
	Retries      int64
}

// runStore caches one spilled PC's loaded runs, R being a run's in-memory
// form: *SortedCounts for uint64 records, map[string]int for byte-string
// records. Runs are immutable once published; see the locking model on
// spilledPC.
type runStore[R any] struct {
	sp   *spilledPC
	read func(ctx context.Context, run int) (R, error) // one scan attempt
	cost func(R) int64                                 // bytes a loaded run holds

	hot atomic.Pointer[map[int]R] // immutable snapshot, copy-on-write

	loadMu []sync.Mutex // per run: serializes loading that run

	admit   sync.Mutex // guards hotCost, curRun, cur; never held across I/O
	hotCost int64      // bytes pinned in the hot cache
	curRun  int        // floating slot: most recent non-pinned run (-1 = none)
	cur     R
}

func newRunStore[R any](sp *spilledPC, read func(context.Context, int) (R, error), cost func(R) int64) *runStore[R] {
	rs := &runStore[R]{
		sp:     sp,
		read:   read,
		cost:   cost,
		loadMu: make([]sync.Mutex, len(sp.runSizes)),
		curRun: -1,
	}
	empty := make(map[int]R)
	rs.hot.Store(&empty)
	return rs
}

// get returns run's loaded counts, loading (and possibly pinning) it on a
// miss. The returned run is immutable and remains valid even after the
// floating slot moves on — callers may iterate it without any lock. A
// failed (and once-retried) run read returns an error; nothing is cached,
// so a later call retries the load from scratch. ctx (nil for unarmed
// callers) bounds the load's file scan; cache hits never consult it.
func (rs *runStore[R]) get(ctx context.Context, run int) (R, error) {
	if m, ok := (*rs.hot.Load())[run]; ok {
		rs.sp.stats.hotHits.Add(1)
		return m, nil
	}
	rs.loadMu[run].Lock()
	defer rs.loadMu[run].Unlock()
	// Re-check under the run's load lock: a concurrent miss on the same
	// run may have pinned it while we waited.
	if m, ok := (*rs.hot.Load())[run]; ok {
		rs.sp.stats.hotHits.Add(1)
		return m, nil
	}
	rs.admit.Lock()
	if run == rs.curRun {
		m := rs.cur
		rs.admit.Unlock()
		rs.sp.stats.floatHits.Add(1)
		return m, nil
	}
	rs.admit.Unlock()
	var zero R
	// A miss means disk IO: an already-fired context stops here, before
	// the load, not one polling stride into it — so small runs (under the
	// polling stride) still honor cancellation.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
	}
	m, err := rs.load(ctx, run)
	if err != nil {
		return zero, err
	}
	rs.place(run, m)
	return m, nil
}

// load reads run's file, retrying once on failure. The liveness read-lock
// is held across the released-check and the scans, so a concurrent
// release cannot delete the files mid-read: a lookup racing ReleaseSpill
// either completes or panics with the documented message.
//
// A read error here must never become a wrong count: the partial run is
// discarded and the error propagates. One bounded retry absorbs transient
// faults (a device-level hiccup recovers; a checksum mismatch on corrupt
// data fails again deterministically). Both the failures and the retry are
// metered. A cancelled scan is neither retried nor metered as a read
// error: the disk did nothing wrong, the caller just left.
func (rs *runStore[R]) load(ctx context.Context, run int) (R, error) {
	sp := rs.sp
	sp.liveMu.RLock()
	defer sp.liveMu.RUnlock()
	sp.checkLive()
	var zero R
	m, err := rs.read(ctx, run)
	if err != nil {
		if isCtxErr(err) {
			return zero, err
		}
		sp.noteReadError()
		sp.noteRetry()
		m, err = rs.read(ctx, run)
		if err != nil {
			if isCtxErr(err) {
				return zero, err
			}
			sp.noteReadError()
			return zero, fmt.Errorf("core: spilled PC run read failed: %w", err)
		}
	}
	sp.stats.runLoads.Add(1)
	return m, nil
}

// spillReadCheckRecs is the cancellation stride of a run-file scan: an
// armed context is polled once per this many records, so an abandoned
// spilled read stops mid-run while the per-record cost of the check stays
// in the noise. Unarmed (nil-ctx) scans skip the polling entirely.
const spillReadCheckRecs = 1024

// scanRecords is one attempt at streaming run's records through add.
func (sp *spilledPC) scanRecords(ctx context.Context, run int, add func(rec []byte)) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	recs := 0
	canceled := false
	if err := sp.w.ScanRun(run, func(rec []byte) bool {
		if done != nil {
			if recs++; recs%spillReadCheckRecs == 0 {
				select {
				case <-done:
					canceled = true
					return false
				default:
				}
			}
		}
		add(rec)
		return true
	}); err != nil {
		return err
	}
	if canceled {
		return ctx.Err()
	}
	return nil
}

// readSorted loads a uint64 run as the sorted layout: its records (one per
// counted row) are counted into a map of the run's distinct keys, which is
// then frozen, so a load's transient memory follows the run's keys, not
// its records.
func (sp *spilledPC) readSorted(ctx context.Context, run int) (*SortedCounts, error) {
	m := make(map[uint64]int, sp.runSizes[run])
	if err := sp.scanRecords(ctx, run, func(rec []byte) { m[binary.LittleEndian.Uint64(rec)]++ }); err != nil {
		return nil, err
	}
	return sortedFromMap(m), nil
}

// readMap loads a byte-string run as a count map.
func (sp *spilledPC) readMap(ctx context.Context, run int) (map[string]int, error) {
	m := make(map[string]int, sp.runSizes[run])
	if err := sp.scanRecords(ctx, run, func(rec []byte) { m[string(rec)]++ }); err != nil {
		return nil, err
	}
	return m, nil
}

// place admits a freshly loaded run: pinned into the hot snapshot when its
// cost fits the budget, otherwise into the floating slot. Callers hold
// loadMu[run], so no other goroutine is placing the same run.
func (rs *runStore[R]) place(run int, m R) {
	cost := rs.cost(m)
	rs.admit.Lock()
	defer rs.admit.Unlock()
	if rs.hotCost+cost <= rs.sp.budget {
		old := *rs.hot.Load()
		next := make(map[int]R, len(old)+1)
		for r, rm := range old {
			next[r] = rm
		}
		next[run] = m
		rs.hot.Store(&next)
		rs.hotCost += cost
	} else {
		rs.curRun, rs.cur = run, m
	}
}

// drop empties the store during release.
func (rs *runStore[R]) drop() {
	empty := make(map[int]R)
	rs.hot.Store(&empty)
	var zero R
	rs.admit.Lock()
	rs.curRun, rs.cur, rs.hotCost = -1, zero, 0
	rs.admit.Unlock()
}

func newSpilledPC(w *spill.Writer, k *Keyer, format spillFormat, size int, runSizes []int, budget int64, scanStats *ScanStats) *spilledPC {
	sp := &spilledPC{
		w:         w,
		keyer:     k,
		u64:       format == spillFmtU64,
		size:      size,
		runSizes:  runSizes,
		budget:    budget,
		scanStats: scanStats,
	}
	if sp.u64 {
		sp.ru = newRunStore(sp, sp.readSorted, func(s *SortedCounts) int64 { return 12 * int64(len(s.Keys)) })
	} else {
		entry := format.entryBytes(k)
		sp.rs = newRunStore(sp, sp.readMap, func(m map[string]int) int64 { return int64(len(m)) * entry })
	}
	// Safety net: when the PC is dropped without ReleaseSpill, the GC
	// still removes the run files. The argument is the writer (not sp), so
	// the cleanup does not keep sp reachable.
	sp.cleanup = runtime.AddCleanup(sp, func(w *spill.Writer) { w.Cleanup() }, w)
	return sp
}

// release frees the on-disk runs and the cached runs. Idempotent. The
// liveness write-lock excludes every in-flight run read, so the files are
// only deleted once no reader is inside a scan.
func (sp *spilledPC) release() {
	sp.liveMu.Lock()
	defer sp.liveMu.Unlock()
	if sp.released.Swap(true) {
		return
	}
	sp.cleanup.Stop()
	sp.w.Cleanup()
	if sp.ru != nil {
		sp.ru.drop()
	}
	if sp.rs != nil {
		sp.rs.drop()
	}
}

// detach retires this spilled view without touching the run files: the GC
// cleanup is stopped and the cached runs dropped, but the writer — and the
// on-disk runs it manages — passes to a successor index built over the same
// (possibly appended-to) directory. Incremental merge uses it when the
// merged PC stays spilled: the old view must stop serving (its size and run
// sizes are stale) yet must not delete runs the new view is about to serve.
// Idempotent; using the detached view afterwards panics like a released one.
func (sp *spilledPC) detach() {
	sp.liveMu.Lock()
	defer sp.liveMu.Unlock()
	if sp.released.Swap(true) {
		return
	}
	sp.cleanup.Stop()
	if sp.ru != nil {
		sp.ru.drop()
	}
	if sp.rs != nil {
		sp.rs.drop()
	}
}

func (sp *spilledPC) checkLive() {
	if sp.released.Load() {
		panic("core: use of a released spilled PC")
	}
}

// noteReadError meters one failed run-read attempt, mirroring into the
// build's shared ScanStats when one is attached.
func (sp *spilledPC) noteReadError() {
	sp.stats.readErrors.Add(1)
	if sp.scanStats != nil {
		atomic.AddInt64(&sp.scanStats.SpillReadErrors, 1)
	}
}

// noteRetry meters one bounded retry of a failed run read.
func (sp *spilledPC) noteRetry() {
	sp.stats.retries.Add(1)
	if sp.scanStats != nil {
		atomic.AddInt64(&sp.scanStats.SpillRetries, 1)
	}
}

// readStats snapshots the read-path counters.
func (sp *spilledPC) readStats() SpillReadStats {
	return SpillReadStats{
		HotHits:      sp.stats.hotHits.Load(),
		FloatingHits: sp.stats.floatHits.Load(),
		RunLoads:     sp.stats.runLoads.Load(),
		ReadErrors:   sp.stats.readErrors.Load(),
		Retries:      sp.stats.retries.Load(),
	}
}

// lookupValsE implements PC.LookupValsCtx for the spilled representation.
// Safe for any number of concurrent callers; hits on pinned runs are
// lock-free. A failed run read returns an error, never a wrong count. ctx
// (nil when unarmed) cancels a miss's run-file load; a fired context
// surfaces as the typed context error.
func (sp *spilledPC) lookupValsE(ctx context.Context, vals []uint16) (int, error) {
	if sp.u64 {
		key, ok := sp.keyer.KeyVals(vals)
		if !ok {
			return 0, nil
		}
		run, err := sp.ru.get(ctx, sp.w.RunOfU64(key))
		if err != nil {
			return 0, err
		}
		return run.lookup(key), nil
	}
	var buf [128]byte
	b, ok := sp.keyer.AppendBytesVals(buf[:0], vals)
	if !ok {
		return 0, nil
	}
	m, err := sp.rs.get(ctx, sp.w.RunOf(b))
	if err != nil {
		return 0, err
	}
	return m[string(b)], nil
}

// eachE implements PC.EachCtx for the spilled representation: runs stream
// one at a time, pinned runs straight from the cache and the rest through
// freshly loaded runs that pass through the floating slot, so live
// iteration memory stays one non-pinned run. No lock is held while fn
// runs — loaded runs are immutable — so fn may re-enter this PC
// (LookupValsCtx, EachCtx, MarginalizeCtx) freely. A failed run read aborts the
// iteration with the error; fn has then seen a prefix of the entries. ctx
// (nil when unarmed) is consulted at run boundaries and inside each run's
// file scan, so abandoning a long streaming iteration stops promptly.
func (sp *spilledPC) eachE(ctx context.Context, n int, fn func(vals []uint16, count int) bool) error {
	sp.checkLive()
	vals := make([]uint16, n)
	if sp.u64 {
		for run := range sp.runSizes {
			if sp.runSizes[run] == 0 {
				continue
			}
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			sc, err := sp.ru.get(ctx, run)
			if err != nil {
				return err
			}
			for i, key := range sc.Keys {
				sp.keyer.Decode(key, vals)
				if !fn(vals, int(sc.Counts[i])) {
					return nil
				}
			}
		}
		return nil
	}
	for run := range sp.runSizes {
		if sp.runSizes[run] == 0 {
			continue
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		m, err := sp.rs.get(ctx, run)
		if err != nil {
			return err
		}
		for key, c := range m {
			sp.keyer.DecodeBytes(key, vals)
			if !fn(vals, c) {
				return nil
			}
		}
	}
	return nil
}
