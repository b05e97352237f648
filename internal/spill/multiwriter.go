package spill

// Shared-scan partitioning: a MultiWriter multiplexes several independent
// spill group-bys off one record stream, so a single dataset pass can
// partition every spilled set of a frontier instead of one pass per set.
// Each target keeps its own Writer — its own run directory, record width,
// run count and frame stream — and the run files it produces are
// byte-identical to the ones a standalone per-set pass would write, so the
// counting side (CountRunsCtx/CountRunsU64Ctx) needs no changes at all.
//
// Failure isolation is per target: a target whose run files cannot be
// created, or whose shard hits a write error mid-pass, is marked failed
// and stops receiving records on every shard, while sibling targets keep
// partitioning. The caller inspects Err(i) after the pass and degrades
// only the failed sets.

import (
	"sync"
	"sync/atomic"
)

// multiBufMin floors the shared-budget per-run buffer: below this, flush
// frames degrade into tiny writes whose 8-byte headers dominate. A frontier
// that cannot afford even these floors degrades gracefully — the budget is
// a target, and the floor is the same kind of backstop as maxSpillRuns.
const multiBufMin = 512

// MultiWriter owns one spill Writer per target set plus the per-target
// error state of a shared partition pass.
type MultiWriter struct {
	writers []*Writer
	failed  []atomic.Bool
	emu     sync.Mutex
	errs    []error
}

// NewMultiWriter creates one Writer per config. bufBudget, when positive,
// bounds the total flush-buffer bytes one MultiShard holds live across all
// targets: every config with BufBytes 0 gets an equal per-run share of the
// budget (clamped to [multiBufMin, 64KiB]; NewWriter then rounds to whole
// records). A config whose writer cannot be created marks only that target
// failed — NewMultiWriter itself never fails, so one bad target cannot
// abort a whole frontier.
func NewMultiWriter(cfgs []Config, bufBudget int64) *MultiWriter {
	mw := &MultiWriter{
		writers: make([]*Writer, len(cfgs)),
		failed:  make([]atomic.Bool, len(cfgs)),
		errs:    make([]error, len(cfgs)),
	}
	if bufBudget > 0 {
		totalRuns := 0
		for _, cfg := range cfgs {
			totalRuns += cfg.Runs
		}
		share := int(bufBudget / int64(max(totalRuns, 1)))
		share = min(max(share, multiBufMin), 64<<10)
		for i := range cfgs {
			if cfgs[i].BufBytes == 0 {
				cfgs[i].BufBytes = share
			}
		}
	}
	for i, cfg := range cfgs {
		w, err := NewWriter(cfg)
		if err != nil {
			mw.setErr(i, err)
			continue
		}
		mw.writers[i] = w
	}
	return mw
}

// NumTargets reports how many target sets the pass partitions.
func (mw *MultiWriter) NumTargets() int { return len(mw.writers) }

// Writer exposes target i's spill writer for counting after the pass; nil
// when the target failed at creation.
func (mw *MultiWriter) Writer(i int) *Writer { return mw.writers[i] }

// Err reports the first error target i hit (creation or shard write), or
// nil if the target's runs are complete and countable.
func (mw *MultiWriter) Err(i int) error {
	mw.emu.Lock()
	defer mw.emu.Unlock()
	return mw.errs[i]
}

// setErr records target i's first error and flags it failed so every shard
// stops spending key computation and buffer space on it.
func (mw *MultiWriter) setErr(i int, err error) {
	mw.emu.Lock()
	if mw.errs[i] == nil {
		mw.errs[i] = err
	}
	mw.emu.Unlock()
	mw.failed[i].Store(true)
}

// CleanupTarget releases target i's run files and directory; idempotent.
// Callers clean each target as soon as its runs are counted so a frontier's
// disk footprint is one target's runs past the partition phase, not all of
// them until the frontier finishes.
func (mw *MultiWriter) CleanupTarget(i int) {
	if w := mw.writers[i]; w != nil {
		w.Cleanup()
	}
}

// Cleanup releases every target; idempotent, safe to defer right after
// NewMultiWriter (covers error and panic exits like Writer.Cleanup does).
func (mw *MultiWriter) Cleanup() {
	for i := range mw.writers {
		mw.CleanupTarget(i)
	}
}

// Shard returns a per-goroutine view multiplexing one ShardWriter per live
// target. Like ShardWriter, a MultiShard is not safe for concurrent use,
// but any number of them may add concurrently.
func (mw *MultiWriter) Shard() *MultiShard {
	ms := &MultiShard{mw: mw, shards: make([]*ShardWriter, len(mw.writers))}
	for i, w := range mw.writers {
		if w != nil && !mw.failed[i].Load() {
			ms.shards[i] = w.Shard()
		}
	}
	return ms
}

// MultiShard buffers one goroutine's records for every target of a shared
// partition pass.
type MultiShard struct {
	mw     *MultiWriter
	shards []*ShardWriter
}

// Failed reports whether target i is dead — creation failed or any shard
// hit a write error — so callers skip computing its keys entirely.
func (ms *MultiShard) Failed(i int) bool {
	return ms.shards[i] == nil || ms.mw.failed[i].Load()
}

// Add routes one record to target i. Errors stay inside the target: the
// first write failure flags it for every shard and later Adds no-op.
func (ms *MultiShard) Add(i int, rec []byte) {
	s := ms.shards[i]
	if s == nil {
		return
	}
	s.Add(rec)
	if s.err != nil {
		ms.mw.setErr(i, s.err)
	}
}

// AddU64 routes one uint64 record (8-byte little-endian) to target i.
func (ms *MultiShard) AddU64(i int, key uint64) {
	s := ms.shards[i]
	if s == nil {
		return
	}
	s.AddU64(key)
	if s.err != nil {
		ms.mw.setErr(i, s.err)
	}
}

// Close flushes and releases every per-target shard, recording any flush
// error against its target. It must be called (even after errors) before
// any target is counted.
func (ms *MultiShard) Close() {
	for i, s := range ms.shards {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil {
			ms.mw.setErr(i, err)
		}
		ms.shards[i] = nil
	}
}
