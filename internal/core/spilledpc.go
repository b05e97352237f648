package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pcbl/internal/spill"
)

// spilledPC is the merge-on-read PC representation: a pattern-count index
// whose counted map modeled over CountOptions.MemBudget, so instead of
// materializing it the index keeps its counted runs on disk as sorted
// (key, count) entries (spill.Runs) and serves the PC consumer surface
// (Size / LookupValsCtx / EachCtx) from them. Size and the run sizes are
// known from the count pass; EachCtx walks one run at a time; LookupValsCtx
// routes a key to the single run that can hold it (the same hash partition
// every occurrence took) and consults that run's counts.
//
// A run is read into memory whole, once per cache miss, by decoding its
// entries straight into the sorted layout (SortedCounts, looked up by
// binary search). No counting map is built: the entries on disk are
// already distinct and in key order, and their number (the run size)
// sizes the load's allocations exactly. Reads are budget-bounded: a
// pinned hot-run cache admits loaded runs while their cost fits the
// budget, and one floating slot holds the most recently loaded run beyond
// it, so peak read memory is roughly the budget plus one run, plus the
// run being loaded. The cache charges what a run really holds — 8W + 4
// bytes an entry, 12 for one-word keys — not the map model (56 bytes a
// one-word entry) that decided, at build time, to spill and how many runs
// to write. So a one-word index pins every run when its entries would
// fill up to 4.7 budgets at the map model, and its lookups then read no
// run file at all.
//
// Locking model (a label is built once and consulted by many concurrent
// readers, so the read path must not serialize):
//
//   - The hot cache is an immutable snapshot behind an atomic pointer,
//     republished copy-on-write when a run is pinned. Loaded runs are
//     never mutated, so lookups that hit a pinned run take no lock at all
//     — the read-mostly fast path: one snapshot load and one binary search.
//   - A per-run load mutex serializes loading any one run, so concurrent
//     misses on the same run perform one run read, while misses on
//     different runs load in parallel.
//   - A small admission mutex guards the floating slot and the hot-cost
//     accounting — the only remaining shared-write section, held for a few
//     pointer updates, never across I/O.
//   - A liveness RWMutex makes release atomic with run reads: loads hold
//     the read side across the released-check and the run read, release
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
	runs     *spill.Runs
	keyer    *Keyer
	size     int // total distinct patterns, exact
	runSizes []int
	budget   int64 // pinned hot-run cache budget

	liveMu   sync.RWMutex // read side: run-file access; write side: release
	released atomic.Bool
	cleanup  runtime.Cleanup

	stats spillReadStats
	// scanStats, when non-nil, is the build's shared ScanStats: read
	// errors and retries are mirrored into its atomic Spill* counters.
	scanStats *ScanStats

	store *runStore
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
// (each load is one full decode of a run file), failed read attempts, and
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

// runStore caches one spilled PC's loaded runs in the sorted layout. Runs
// are immutable once published; see the locking model on spilledPC.
type runStore struct {
	sp *spilledPC

	hot atomic.Pointer[map[int]*SortedCounts] // immutable snapshot, copy-on-write

	loadMu []sync.Mutex // per run: serializes loading that run

	admit   sync.Mutex // guards hotCost, curRun, cur; never held across I/O
	hotCost int64      // bytes pinned in the hot cache
	curRun  int        // floating slot: most recent non-pinned run (-1 = none)
	cur     *SortedCounts
}

func newRunStore(sp *spilledPC) *runStore {
	rs := &runStore{
		sp:     sp,
		loadMu: make([]sync.Mutex, len(sp.runSizes)),
		curRun: -1,
	}
	empty := make(map[int]*SortedCounts)
	rs.hot.Store(&empty)
	return rs
}

// get returns run's loaded counts, loading (and possibly pinning) it on a
// miss. The returned run is immutable and remains valid even after the
// floating slot moves on — callers may iterate it without any lock. A
// failed (and once-retried) run read returns an error; nothing is cached,
// so a later call retries the load from scratch. ctx (nil for unarmed
// callers) bounds the load's run read; cache hits never consult it.
func (rs *runStore) get(ctx context.Context, run int) (*SortedCounts, error) {
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
	// A miss means disk IO: an already-fired context stops here, before
	// the load, not one polling stride into it — so small runs (under the
	// polling stride) still honor cancellation.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	m, err := rs.load(ctx, run)
	if err != nil {
		return nil, err
	}
	rs.place(run, m)
	return m, nil
}

// load reads run's file, retrying once on failure. The liveness read-lock
// is held across the released-check and the decode, so a concurrent
// release cannot delete the files mid-read: a lookup racing ReleaseSpill
// either completes or panics with the documented message.
//
// A read error here must never become a wrong count: the partial run is
// discarded and the error propagates. One bounded retry absorbs transient
// faults (a device-level hiccup recovers; a checksum mismatch on corrupt
// data fails again deterministically). Both the failures and the retry are
// metered. A cancelled read is neither retried nor metered as a read
// error: the disk did nothing wrong, the caller just left.
func (rs *runStore) load(ctx context.Context, run int) (*SortedCounts, error) {
	sp := rs.sp
	sp.liveMu.RLock()
	defer sp.liveMu.RUnlock()
	sp.checkLive()
	m, err := sp.decodeSorted(ctx, run)
	if err != nil {
		if isCtxErr(err) {
			return nil, err
		}
		sp.noteReadError()
		sp.noteRetry()
		m, err = sp.decodeSorted(ctx, run)
		if err != nil {
			if isCtxErr(err) {
				return nil, err
			}
			sp.noteReadError()
			return nil, fmt.Errorf("core: spilled PC run read failed: %w", err)
		}
	}
	sp.stats.runLoads.Add(1)
	return m, nil
}

// decodeSorted makes one attempt to load a run into the sorted layout:
// its entries decode straight into key and count slices of the run's
// exact size. Every key must also lie inside the key space.
func (sp *spilledPC) decodeSorted(ctx context.Context, run int) (*SortedCounts, error) {
	n, w := sp.runSizes[run], sp.keyer.Words()
	sc := &SortedCounts{W: w, Keys: make([]uint64, 0, w*n), Counts: make([]int32, 0, n)}
	var bad error
	if err := sp.runs.Each(ctx, run, func(key []uint64, c int) bool {
		if !sp.keyer.validKey(key) {
			bad = runCorrupt(run, "key %v outside the key space %v", key, sp.keyer.radix)
			return false
		}
		sc.Keys = append(sc.Keys, key...)
		sc.Counts = append(sc.Counts, int32(c))
		return true
	}); err != nil || bad != nil {
		return nil, cmp.Or(err, bad)
	}
	if len(sc.Counts) != n {
		return nil, runCorrupt(run, "holds %d entries, run size %d", len(sc.Counts), n)
	}
	return sc, nil
}

// runCorrupt reports a run whose verified entries still cannot be this
// index's: a typed spill.CorruptError, like every failed run read.
func runCorrupt(run int, format string, args ...any) error {
	return &spill.CorruptError{Run: run, Off: -1, Detail: fmt.Sprintf(format, args...)}
}

// place admits a freshly loaded run: pinned into the hot snapshot when its
// cost fits the budget, otherwise into the floating slot. Callers hold
// loadMu[run], so no other goroutine is placing the same run.
func (rs *runStore) place(run int, m *SortedCounts) {
	cost := int64(8*m.W+4) * int64(len(m.Counts))
	rs.admit.Lock()
	defer rs.admit.Unlock()
	if rs.hotCost+cost <= rs.sp.budget {
		old := *rs.hot.Load()
		next := make(map[int]*SortedCounts, len(old)+1)
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
func (rs *runStore) drop() {
	empty := make(map[int]*SortedCounts)
	rs.hot.Store(&empty)
	rs.admit.Lock()
	rs.curRun, rs.cur, rs.hotCost = -1, nil, 0
	rs.admit.Unlock()
}

func newSpilledPC(rs *spill.Runs, k *Keyer, size int, runSizes []int, budget int64, scanStats *ScanStats) *spilledPC {
	sp := &spilledPC{
		runs:      rs,
		keyer:     k,
		size:      size,
		runSizes:  runSizes,
		budget:    budget,
		scanStats: scanStats,
	}
	sp.store = newRunStore(sp)
	// Safety net: when the PC is dropped without ReleaseSpill, the GC
	// still removes the run files. The argument is the runs (not sp), so
	// the cleanup does not keep sp reachable.
	sp.cleanup = runtime.AddCleanup(sp, func(rs *spill.Runs) { rs.Cleanup() }, rs)
	return sp
}

// release frees the on-disk runs and the cached runs. Idempotent. The
// liveness write-lock excludes every in-flight run read, so the files are
// only deleted once no reader is inside a run read.
func (sp *spilledPC) release() {
	sp.liveMu.Lock()
	defer sp.liveMu.Unlock()
	if sp.released.Swap(true) {
		return
	}
	sp.cleanup.Stop()
	sp.runs.Cleanup()
	sp.store.drop()
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
	var buf [8]uint64
	key, ok := sp.keyer.appendKey(buf[:0], vals)
	if !ok {
		return 0, nil
	}
	run, err := sp.store.get(ctx, sp.runs.RunOf(key))
	if err != nil {
		return 0, err
	}
	return run.lookupKey(key), nil
}

// eachE implements PC.EachCtx for the spilled representation: runs stream
// one at a time, pinned runs straight from the cache and the rest through
// freshly loaded runs that pass through the floating slot, so live
// iteration memory stays one non-pinned run. No lock is held while fn
// runs — loaded runs are immutable — so fn may re-enter this PC
// (LookupValsCtx, EachCtx, MarginalizeCtx) freely. A failed run read aborts the
// iteration with the error; fn has then seen a prefix of the entries. ctx
// (nil when unarmed) is consulted at run boundaries and at every frame of
// a run's decode, so abandoning a long streaming iteration stops promptly.
func (sp *spilledPC) eachE(ctx context.Context, n int, fn func(vals []uint16, count int) bool) error {
	sp.checkLive()
	vals := make([]uint16, n)
	for run := range sp.runSizes {
		if sp.runSizes[run] == 0 {
			continue
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		sc, err := sp.store.get(ctx, run)
		if err != nil {
			return err
		}
		for i, c := range sc.Counts {
			sp.keyer.decodeKey(sc.entry(i), vals)
			if !fn(vals, int(c)) {
				return nil
			}
		}
	}
	return nil
}
