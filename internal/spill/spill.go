// Package spill implements the external-memory tier of the counting
// engine: a partitioned on-disk group-by for datasets whose grouping state
// would not fit the caller's memory budget, and the sorted runs a spilled
// pattern-count index keeps on disk.
//
// The map kernels in internal/core hold one map entry per distinct group
// for the whole scan — unbounded-domain attribute sets can make that state
// arbitrarily large. The spill group-by bounds it: keys of W uint64 words
// are hash-partitioned into K on-disk partition runs during the scan
// (Writer), and each run is then counted by sorting it. The hash partition
// sends every occurrence of a key to the same run, so runs hold disjoint
// key sets, per-run counts are exact final counts, and the total distinct
// count is the plain sum over runs — which is what lets label sizing stop
// a count exactly: the running total is monotone, and its emit callback
// ends the count the moment the total passes the cap. Peak grouping memory
// is one run's count state per counting worker, held within the worker's
// budget share (Config.Share; the caller picks K so a run's distinct keys
// fit it), instead of the whole key space.
//
// Every run, partition or sorted, is written in one codec (runs.go):
// CRC32C-checked frames of (key, count) entries, strictly ascending within
// a frame, the first key word gap-coded and every number varint-coded. A
// ShardWriter buffers each run's entries and flushes a full buffer sorted,
// with the counts of equal keys summed, so a run holds a key at most once
// per flush of each shard however often it repeats. Counting a run reads
// its frames back, sorts the entries and sums them again (Sorter), and
// sums in place whenever its buffer reaches the worker's share, so a run
// whose flushes wrote many entries of few keys is counted in the share;
// runs are key-disjoint, so CountRunsCtx splits them K-way across workers,
// and each worker reuses its buffers across its runs.
//
// A partition run lives only until it is counted. A spilled index keeps
// what counting yields instead: Runs, K sorted runs under the same routing,
// strictly ascending across frames too. A merge-on-read load decodes one
// straight into its in-memory form, an artifact adopts the files as they
// are, and a merge rewrites them with one linear two-way merge per run.
// The same codec stores an artifact's in-memory indexes, one run a file.
//
// Every read verifies a frame's checksum before a single entry of it
// reaches a caller — a torn sector or bit flip surfaces as a typed
// CorruptError, never as a silently wrong count. All file access goes
// through an injectable iofault.FS seam, so durability tests can script
// the exact fault a disk would produce.
//
// The package is deliberately below internal/core in the import order: it
// deals only in uint64-word keys, so core can select it from kernel
// dispatch without a cycle. It allocates its own buffers: each shard's
// partition buffers and each count worker's read and sort buffers, sized
// once and reused across flushes and runs.
package spill

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"

	"pcbl/internal/iofault"
	"pcbl/internal/workpool"
)

// Config describes one spill group-by.
type Config struct {
	// Words is the key width W in uint64 words. Required, >= 1.
	Words int
	// Runs is the number of hash partitions K. Required, >= 1. Callers
	// size it so one run's estimated count state fits each counting
	// worker's share of their budget (CountRunsCtx holds one run's entries
	// per worker).
	Runs int
	// Share is each counting worker's memory share in bytes, the one K
	// was sized against. A count then holds at most Share bytes of a
	// run's entries and their sort scratch, summing its buffer in place
	// each time it fills, unless the run's distinct keys fill more than
	// half of it: the buffer then grows to twice them, or to the run's
	// entries if fewer. Zero means no limit: a run is read whole, then
	// summed.
	Share int64
	// Dir is the parent directory for the run files; the writer creates
	// (and on Cleanup removes) a private subdirectory under it. Empty
	// means the system temp directory.
	Dir string
	// FS is the filesystem seam all run-file access goes through; nil
	// means the real OS filesystem. Durability tests inject faults here.
	FS iofault.FS
}

// Stats reports the work one spill group-by performed.
type Stats struct {
	// Runs is the number of on-disk partitions.
	Runs int
	// RecordsSpilled counts the rows added across all shards: a key
	// added with count c counts c rows.
	RecordsSpilled int64
	// BytesWritten counts bytes written to the partition runs, frame
	// headers included.
	BytesWritten int64
	// MaxRunEntries is the largest per-run distinct-key count observed by
	// CountRunsCtx — the quantity the caller's run-sizing bounds.
	MaxRunEntries int
	// MaxCountBytes is the largest count state of one worker: the bytes
	// of the entry buffer and sort scratch it held, which Config.Share
	// bounds.
	MaxCountBytes int64
}

// ErrCorrupt marks run data that failed checksum or structural
// verification; errors.Is(err, ErrCorrupt) matches every CorruptError.
var ErrCorrupt = errors.New("spill: corrupt run data")

// CorruptError reports where a run file failed verification: a frame
// checksum mismatch, a bad frame header, a truncated frame or an entry
// that breaks the codec's rules. It wraps ErrCorrupt.
type CorruptError struct {
	Run    int   // run index within the writer
	Off    int64 // byte offset of the bad frame; negative when not a frame's
	Detail string
}

func (e *CorruptError) Error() string {
	if e.Off < 0 {
		return fmt.Sprintf("spill: run %d corrupt: %s", e.Run, e.Detail)
	}
	return fmt.Sprintf("spill: run %d corrupt at offset %d: %s", e.Run, e.Off, e.Detail)
}

// Is reports ErrCorrupt as this error's class, so callers match the
// category without knowing the location details.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// ErrNoSpace marks write failures caused by a full disk (the underlying
// error chain contains syscall.ENOSPC). Callers use errors.Is(err,
// ErrNoSpace) to route the affected set through an in-memory fallback
// instead of treating a full disk like generic I/O trouble; the failed
// writer's partial runs are removed by the usual Cleanup discipline.
var ErrNoSpace = errors.New("spill: no space left on device")

// noSpaceError tags an ENOSPC-caused failure so it matches both ErrNoSpace
// (the class) and, through Unwrap, the original syscall.ENOSPC chain.
type noSpaceError struct{ err error }

func (e *noSpaceError) Error() string        { return "spill: no space left on device: " + e.err.Error() }
func (e *noSpaceError) Unwrap() error        { return e.err }
func (e *noSpaceError) Is(target error) bool { return target == ErrNoSpace }

// WrapNoSpace classifies a storage error for layers writing label payloads
// outside this package: ENOSPC anywhere in the chain becomes the typed
// ErrNoSpace (the artifact writer uses it so saves and merges on a full
// disk match errors.Is(err, ErrNoSpace)); everything else passes through
// unchanged.
func WrapNoSpace(err error) error { return wrapNoSpace(err) }

// wrapNoSpace classifies a storage error: ENOSPC anywhere in the chain
// becomes a typed ErrNoSpace; everything else passes through unchanged.
func wrapNoSpace(err error) error {
	if err != nil && errors.Is(err, syscall.ENOSPC) {
		return &noSpaceError{err}
	}
	return err
}

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters of the
// partition-routing hash.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// castagnoli is the CRC32C polynomial table of the frame checksums —
// hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// runOfKey routes a key to one of runs partitions: FNV-1a over the key's
// words little-endian, then a murmur-style 64-bit finisher that spreads
// FNV's weakly mixed low bits so the modulo-K partition stays balanced
// even on dense packed keys. The fixed parameters make routing
// deterministic across processes, which is what lets sorted runs adopted
// into a label artifact keep answering single-run lookups after a
// read-only reopen in another process. Partition assignment never affects
// results, only how keys distribute across run files.
func runOfKey(key []uint64, runs int) int {
	h := uint64(fnv64Offset)
	for _, word := range key {
		for range 8 {
			h ^= word & 0xff
			h *= fnv64Prime
			word >>= 8
		}
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(runs))
}

// Writer partitions keys into K on-disk runs. Create one with NewWriter,
// obtain one ShardWriter per producing goroutine, and after all shards are
// closed call CountRunsCtx; always Cleanup (it is idempotent and safe to
// defer before any error handling, including panics). The writer owns its
// private directory: Cleanup deletes it.
type Writer struct {
	cfg          Config
	flushEntries int // entries a shard buffers per run before it flushes them
	fs           iofault.FS
	dir          string
	runs         []partRun
	wmu          sync.Mutex // guards stats and run entry totals from shards and count workers
	stats        Stats
	done         bool
}

// partRun is one partition run's file. Shards append whole frames to it
// under mu, through Write, and record the entries they flushed.
type partRun struct {
	mu      sync.Mutex
	f       iofault.File
	entries int
}

func (r *partRun) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.f.Write(p)
}

// NewWriter creates the run files in a fresh private directory.
func NewWriter(cfg Config) (*Writer, error) {
	if cfg.Words < 1 {
		return nil, fmt.Errorf("spill: key width must be >= 1 word, got %d", cfg.Words)
	}
	if cfg.Runs < 1 {
		return nil, fmt.Errorf("spill: run count must be >= 1, got %d", cfg.Runs)
	}
	fsys := iofault.Resolve(cfg.FS)
	dir, err := fsys.MkdirTemp(cfg.Dir, "pcbl-spill-*")
	if err != nil {
		return nil, wrapNoSpace(err)
	}
	w := &Writer{
		cfg:          cfg,
		flushEntries: flushEntries(cfg.Runs, cfg.Words),
		fs:           fsys,
		dir:          dir,
		runs:         make([]partRun, cfg.Runs),
	}
	w.stats.Runs = cfg.Runs
	for i := range w.runs {
		f, err := fsys.Create(runPath(dir, i))
		if err != nil {
			w.Cleanup()
			return nil, wrapNoSpace(err)
		}
		w.runs[i].f = f
	}
	return w, nil
}

// runPath names run i inside dir; NewWriter, NewRuns, Open and AdoptInto
// agree on the layout.
func runPath(dir string, i int) string { return fmt.Sprintf("%s/run-%04d", dir, i) }

// flushEntries sizes a shard's per-run buffer in entries of words-word
// keys: a shard's K buffers stay around a quarter MiB regardless of the
// run count, within [4 KiB, 64 KiB] per run.
func flushEntries(runs, words int) int {
	b := min(max((256<<10)/runs, 4<<10), 64<<10)
	return b / (8*words + 4)
}

// encodedBytes bounds the encoding of n entries of words-word keys: each
// entry at its longest, a header per frame and the open frame's.
func encodedBytes(n, words int) int {
	return n*(words*maxWordBytes+maxCountBytes) + sortedHdrLen*(n/frameEntries+2)
}

// NumRuns returns the partition count K.
func (w *Writer) NumRuns() int { return w.cfg.Runs }

// DropRun closes and deletes run's file once it has been counted, so a
// build that writes each counted run sorted holds one copy of it on disk,
// not two. Reading the run afterwards fails; Cleanup still removes the
// rest. Call it only while no count or shard touches the run — an emit
// callback of CountRunsCtx may drop the run it was handed.
func (w *Writer) DropRun(run int) {
	if f := w.runs[run].f; f != nil {
		f.Close()
		w.runs[run].f = nil
		w.fs.Remove(runPath(w.dir, run))
	}
}

// Shard returns a writer-local view for one producing goroutine: Add is not
// safe for concurrent use on a single ShardWriter, but any number of shards
// may add concurrently. Close flushes and drops the shard's buffers; it
// must be called (even after errors) before CountRunsCtx.
func (w *Writer) Shard() *ShardWriter {
	s := &ShardWriter{w: w, bufs: make([]shardBuf, w.cfg.Runs)}
	// The encoder holds a whole flush at its longest, so flushes never
	// grow it.
	s.enc.buf = make([]byte, 0, encodedBytes(w.flushEntries, w.cfg.Words))
	for i := range s.bufs {
		s.bufs[i] = shardBuf{
			keys:   make([]uint64, 0, w.flushEntries*w.cfg.Words),
			counts: make([]int32, 0, w.flushEntries),
		}
	}
	return s
}

// ShardWriter buffers one goroutine's entries per partition and flushes
// each full buffer to its run file, sorted and summed, as whole frames.
type ShardWriter struct {
	w      *Writer
	bufs   []shardBuf
	sorter Sorter    // flush sort scratch, reused by every flush
	enc    RunWriter // frame encoder, reused by every flush
	recs   int64
	err    error
}

// shardBuf holds the entries a shard has buffered for one run.
type shardBuf struct {
	keys   []uint64
	counts []int32
}

// Add buffers one entry: a key of the configured W words, routed to its
// run by the partition hash Runs.RunOf also uses, and its positive count
// (1 for one row). After a write error Add becomes a no-op and Close
// reports the first error.
func (s *ShardWriter) Add(key []uint64, count int) {
	if s.err != nil {
		return
	}
	if len(key) != s.w.cfg.Words || count <= 0 || count > maxCount {
		s.err = fmt.Errorf("spill: entry of a %d-word key and count %d, want %d words and a count in [1, %d]",
			len(key), count, s.w.cfg.Words, maxCount)
		return
	}
	run := runOfKey(key, s.w.cfg.Runs)
	b := &s.bufs[run]
	if len(b.counts) == s.w.flushEntries {
		if s.flush(run); s.err != nil {
			return
		}
	}
	b.keys = append(b.keys, key...)
	b.counts = append(b.counts, int32(count))
	s.recs += int64(count)
}

// flush sorts the shard's buffered entries for run, sums the counts of
// equal keys and appends them to the run's file as frames. Frames of
// different shards interleave whole: each flush writes whole frames under
// the run's lock, and frames carry their own key order.
func (s *ShardWriter) flush(run int) {
	b := &s.bufs[run]
	if len(b.counts) == 0 {
		return
	}
	w := s.w
	s.sorter.reserve(w.flushEntries, w.cfg.Words) // once, for a full buffer
	keys, counts := s.sorter.Sum(b.keys, b.counts, w.cfg.Words)
	s.enc.reset(&w.runs[run], w.cfg.Words)
	for i, c := range counts {
		s.enc.Add(keys[i*w.cfg.Words:][:w.cfg.Words], int(c))
	}
	if s.err = s.enc.finish(); s.err != nil {
		return
	}
	w.wmu.Lock()
	w.stats.BytesWritten += s.enc.written
	w.runs[run].entries += len(counts)
	w.wmu.Unlock()
	b.keys, b.counts = b.keys[:0], b.counts[:0]
}

// Close flushes every partition buffer and drops them. It returns the
// first error the shard hit.
func (s *ShardWriter) Close() error {
	for run := range s.bufs {
		if s.err == nil {
			s.flush(run)
		}
		s.bufs[run] = shardBuf{}
	}
	s.w.wmu.Lock()
	s.w.stats.RecordsSpilled += s.recs
	s.w.wmu.Unlock()
	s.recs = 0
	return s.err
}

// CountRunsCtx counts every partition run: it reads the run through the
// codec's verifying reader (frame checksums, header totals, positive
// counts, whole varints, key order within each frame and every key
// routing to the run), sorts the entries and sums the counts of equal
// keys, and hands emit the run's distinct entries in ascending key order:
// len(counts) keys of W words in keys. A run with more entries than
// Config.Share holds is summed in place each time the buffer fills.
//
// Runs hold disjoint keys, so they are counted independently: with
// workers > 1 the runs are split K-way across worker goroutines, each
// sizing its read and sort buffers once, for the largest of its runs
// within its share, and reusing them across its runs. Per-run counts are
// final and identical for every worker count.
//
// emit, when non-nil, is invoked once per counted run — the caller keeps
// the entries (runs are key-disjoint, so plain appends suffice) or just
// observes, e.g. sums their number for the distinct total; returning false
// stops the count early, without error. emit calls are serialized under an
// internal lock, but run completion order is unspecified with workers > 1,
// and the slices are reused for the worker's next run: emit must not
// retain them. A panic in emit (or anywhere in a counting worker) is
// re-raised on the calling goroutine, so the caller's deferred Cleanup
// still runs.
//
// When ctx fires, workers stop at the next frame, a shared stop flag fans
// the abort out to every worker, and the context's error is returned. A
// nil ctx never cancels.
func (w *Writer) CountRunsCtx(ctx context.Context, workers int, emit func(run int, keys []uint64, counts []int32) bool) error {
	if w.done {
		return fmt.Errorf("spill: CountRuns after Cleanup")
	}
	words := w.cfg.Words
	entryBytes := int64(2 * (8*words + 4)) // an entry and its sort scratch
	workers = workpool.Resolve(workers, len(w.runs))
	var stopped atomic.Bool // emit asked to stop, a worker failed, or the context fired
	errs := make([]error, workers)
	panics := make([]any, workers)
	workpool.RunChunks(len(w.runs), workers, func(wk, lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				panics[wk] = r
				stopped.Store(true)
			}
		}()
		room := 0 // entries the buffers hold
		for run := lo; run < hi; run++ {
			room = max(room, w.runs[run].entries)
		}
		if w.cfg.Share > 0 {
			room = min(room, int(max(w.cfg.Share/entryBytes, 1)))
		}
		keys := make([]uint64, 0, room*words)
		counts := make([]int32, 0, room)
		var sorter Sorter
		sorter.reserve(room, words)
		rr := runReader{words: words, runs: len(w.runs), perFrame: true,
			payload: make([]byte, 0, encodedBytes(frameEntries, words))}
		for run := lo; run < hi && !stopped.Load(); run++ {
			keys, counts = keys[:0], counts[:0]
			err := rr.read(ctx, w.runs[run].f, run, func(key []uint64, c int) bool {
				if len(counts) == room {
					// The buffer is full: sum it in place. A run of
					// repeated keys then fits it; only when the distinct
					// keys fill more than half of it does it grow, to
					// twice them or the run's entries.
					ks, cs := sorter.Sum(keys, counts, words)
					keys, counts = append(keys[:0], ks...), append(counts[:0], cs...)
					if 2*len(counts) > room {
						room = min(2*len(counts), w.runs[run].entries)
						more := max(room-len(counts), 0)
						keys, counts = slices.Grow(keys, more*words), slices.Grow(counts, more)
					}
				}
				keys = append(keys, key...)
				counts = append(counts, int32(c))
				return true
			})
			if err != nil {
				errs[wk] = err
				stopped.Store(true)
				return
			}
			ks, cs := sorter.Sum(keys, counts, words)
			// wmu serializes emit and the stats updates (shard writers
			// are closed by count time, so the lock is otherwise
			// uncontended). The deferred unlock keeps the writer usable
			// when a panic in emit is recovered by the caller.
			cont := func() bool {
				w.wmu.Lock()
				defer w.wmu.Unlock()
				w.stats.MaxRunEntries = max(w.stats.MaxRunEntries, len(cs))
				w.stats.MaxCountBytes = max(w.stats.MaxCountBytes, int64(room)*entryBytes)
				return emit == nil || emit(run, ks, cs)
			}()
			if !cont {
				stopped.Store(true)
				return
			}
		}
	})
	for _, p := range panics {
		if p != nil {
			// Re-raise on the caller so its deferred Cleanup (and any outer
			// recovery) sees the panic exactly as in the sequential path.
			panic(p)
		}
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Stats returns the writer's accumulated counters. Call after the shards
// are closed (and after CountRunsCtx for MaxRunEntries).
func (w *Writer) Stats() Stats {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.stats
}

// Dir exposes the private run directory; tests assert its lifecycle.
func (w *Writer) Dir() string { return w.dir }

// Cleanup closes every run file and deletes the files and the private
// directory. It is idempotent and safe after partial construction, so
// callers defer it immediately after NewWriter — covering success, early
// stop, error and panic exits alike.
func (w *Writer) Cleanup() {
	if w.done {
		return
	}
	w.done = true
	for i := range w.runs {
		if f := w.runs[i].f; f != nil {
			f.Close()
			w.runs[i].f = nil
		}
	}
	w.fs.RemoveAll(w.dir)
}
