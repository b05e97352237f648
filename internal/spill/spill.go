// Package spill implements the external-memory tier of the counting
// engine: a partitioned on-disk group-by for datasets whose grouping state
// would not fit the caller's memory budget, and the sorted runs a spilled
// pattern-count index keeps on disk.
//
// The map kernels in internal/core hold one map entry per distinct group
// for the whole scan — unbounded-domain attribute sets can make that state
// arbitrarily large. The spill group-by bounds it: fixed-width key records
// are hash-partitioned into K on-disk partition runs during the scan
// (Writer), and the runs are then counted with ordinary in-memory maps.
// The hash partition sends every occurrence of a key to the same run, so
// runs hold disjoint key sets, per-run counts are exact final counts, and
// the total distinct count is the plain sum over runs — which is what
// lets label sizing stop a count exactly: the running total is monotone,
// and its emit callback ends the count the moment the total passes the
// cap. Peak grouping memory is one run's map per counting worker (the
// caller picks K so a run's estimated footprint fits its per-worker budget
// share) instead of the whole key space.
//
// A record is a key of W uint64 words, little-endian (8W bytes). One-word
// records count into map[uint64]int (AddU64 / CountRunsU64Ctx); wider
// ones count into a Tally, which allocates once per distinct record (Add
// / CountRunsCtx). Run counting is parallel: runs are key-disjoint, so
// CountRunsCtx splits them K-way across workers, and each worker reuses
// one accumulator and pooled read chunk across its runs.
//
// A partition run lives only until it is counted. A spilled index keeps
// what counting yields instead: Runs, K sorted runs of (key, count)
// entries under the same routing, the first key word gap-coded and every
// number varint-coded (runs.go). A merge-on-read load decodes one
// straight into its in-memory form, an artifact adopts the files as they
// are, and a merge rewrites them with one linear two-way merge per run.
// The same run codec stores an artifact's in-memory indexes, one run a
// file.
//
// Both kinds of run detect corruption: every frame carries a CRC32C, and
// every read path verifies a frame's checksum before a single record or
// entry of it reaches a caller — a torn sector or bit flip surfaces as a
// typed CorruptError, never as a silently wrong count. All file access goes
// through an injectable iofault.FS seam, so durability tests can script
// the exact fault a disk would produce.
//
// The package is deliberately below internal/core in the import order: it
// deals only in fixed-width records and uint64-word keys, so core can
// select it from kernel dispatch without a cycle. Buffers are recycled
// through the BufPool interface, which *core.VecPool satisfies.
package spill

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"sync"
	"sync/atomic"
	"syscall"

	"pcbl/internal/iofault"
	"pcbl/internal/workpool"
)

// BufPool supplies reusable byte buffers for the writer's partition buffers
// and the run readers' chunk buffers. *core.VecPool satisfies it; a nil-safe
// implementation (or a nil Config.Pool) degrades to plain allocation.
type BufPool interface {
	GetBytes(n int) []byte
	PutBytes(b []byte)
}

// Config describes one spill group-by.
type Config struct {
	// RecWidth is the fixed record width in bytes: 8 per key word.
	// Required, > 0. Callers using one-word records (AddU64 /
	// CountRunsU64Ctx) set it to 8.
	RecWidth int
	// Runs is the number of hash partitions K. Required, >= 1. Callers
	// size it so one run's estimated in-memory map fits each counting
	// worker's share of their budget (CountRunsCtx keeps one run map live per
	// worker).
	Runs int
	// Dir is the parent directory for the run files; the writer creates
	// (and on Cleanup removes) a private subdirectory under it. Empty
	// means the system temp directory.
	Dir string
	// Pool recycles buffers across spills; nil means plain allocation.
	Pool BufPool
	// FS is the filesystem seam all run-file access goes through; nil
	// means the real OS filesystem. Durability tests inject faults here.
	FS iofault.FS
}

// Stats reports the work one spill group-by performed.
type Stats struct {
	// Runs is the number of on-disk partitions.
	Runs int
	// RecordsSpilled counts records written across all partitions.
	RecordsSpilled int64
	// BytesWritten counts bytes written to the run files, frame headers
	// included.
	BytesWritten int64
	// MaxRunEntries is the largest per-run distinct-key count observed by
	// CountRunsCtx — the quantity the caller's run-sizing bounds.
	MaxRunEntries int
}

// ErrCorrupt marks run data that failed checksum or structural
// verification; errors.Is(err, ErrCorrupt) matches every CorruptError.
var ErrCorrupt = errors.New("spill: corrupt run data")

// CorruptError reports where a run file failed verification: a frame
// checksum mismatch, a bad frame length or a truncated frame. It wraps
// ErrCorrupt.
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

// Frame layout of partition run files: every flush appends one frame,
//
//	uint32 payload length | uint32 CRC32C(payload) | payload
//
// with the payload a whole number of RecWidth-byte records. Readers verify
// the checksum of each frame before decoding any record from it. Sorted
// runs frame differently (runs.go).
const (
	frameHdrLen = 8
	// maxFrameBytes bounds a frame's declared payload so a corrupt length
	// field cannot drive an allocation by gigabytes.
	maxFrameBytes = 1 << 24
)

// routeHash is the fixed, process-independent partition hash: FNV-1a over
// the record bytes followed by a murmur-style 64-bit finisher. The finisher
// spreads FNV's weakly mixed low bits so the modulo-K partition stays
// balanced even on dense packed keys; the fixed parameters make routing
// deterministic across processes, which is what lets sorted runs adopted
// into a label artifact keep answering single-run lookups after a
// read-only reopen in another process. Partition assignment never affects
// results, only how records distribute across run files.
func routeHash(rec []byte) uint64 {
	h := uint64(fnv64Offset)
	for _, b := range rec {
		h ^= uint64(b)
		h *= fnv64Prime
	}
	return finishHash(h)
}

// finishHash is routeHash's murmur-style 64-bit finisher.
func finishHash(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// runOf routes a record to one of runs partitions.
func runOf(rec []byte, runs int) int { return int(routeHash(rec) % uint64(runs)) }

// runOfKey routes a key of uint64 words as its record, the words
// little-endian, without materializing it.
func runOfKey(key []uint64, runs int) int {
	h := uint64(fnv64Offset)
	for _, word := range key {
		for range 8 {
			h ^= word & 0xff
			h *= fnv64Prime
			word >>= 8
		}
	}
	return int(finishHash(h) % uint64(runs))
}

// Writer partitions fixed-width records into K on-disk runs. Create one
// with NewWriter, obtain one ShardWriter per producing goroutine, and after
// all shards are closed call CountRunsCtx (or CountRunsU64Ctx); always Cleanup
// (it is idempotent and safe to defer before any error handling, including
// panics). The writer owns its private directory: Cleanup deletes it.
type Writer struct {
	cfg      Config
	bufBytes int // per-partition write buffer, whole records
	fs       iofault.FS
	dir      string
	files    []iofault.File
	mus      []sync.Mutex
	wmu      sync.Mutex // guards stats accumulation from shards and count workers
	stats    Stats
	done     bool
}

// NewWriter creates the run files in a fresh private directory.
func NewWriter(cfg Config) (*Writer, error) {
	if cfg.RecWidth <= 0 {
		return nil, fmt.Errorf("spill: record width must be positive, got %d", cfg.RecWidth)
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
		cfg:      cfg,
		bufBytes: bufBytes(cfg.Runs, cfg.RecWidth),
		fs:       fsys,
		dir:      dir,
		files:    make([]iofault.File, cfg.Runs),
		mus:      make([]sync.Mutex, cfg.Runs),
	}
	w.stats.Runs = cfg.Runs
	for i := range w.files {
		f, err := fsys.Create(runPath(dir, i))
		if err != nil {
			w.Cleanup()
			return nil, wrapNoSpace(err)
		}
		w.files[i] = f
	}
	return w, nil
}

// runPath names run i inside dir; NewWriter, NewRuns, Open and AdoptInto
// agree on the layout.
func runPath(dir string, i int) string { return fmt.Sprintf("%s/run-%04d", dir, i) }

// bufBytes sizes the per-partition write buffer, where records are staged
// and flushed in large sequential writes: a shard's K buffers stay around
// a quarter MiB regardless of the run count, within [4 KiB, 64 KiB] per
// run, rounded down to whole records so flushed frames never split a
// record (concurrent shards interleave only whole frames).
func bufBytes(runs, recWidth int) int {
	b := min(max((256<<10)/runs, 4<<10), 64<<10)
	return max(b-b%recWidth, recWidth)
}

// NumRuns returns the partition count K.
func (w *Writer) NumRuns() int { return w.cfg.Runs }

// RunOf returns the partition a record routes to. Every occurrence of a
// key lands in the same run, and the sorted runs counted from the
// partitions route identically (Runs.RunOf). The routing hash is fixed
// (see routeHash), so it holds across processes too.
func (w *Writer) RunOf(rec []byte) int { return runOf(rec, w.cfg.Runs) }

// DropRun closes and deletes run's file once it has been counted, so a
// build that writes each counted run sorted holds one copy of it on disk,
// not two. Reading the run afterwards fails; Cleanup still removes the
// rest. Call it only while no count or shard touches the run — an emit
// callback of CountRunsCtx may drop the run it was handed.
func (w *Writer) DropRun(run int) {
	if f := w.files[run]; f != nil {
		f.Close()
		w.files[run] = nil
		w.fs.Remove(runPath(w.dir, run))
	}
}

// Shard returns a writer-local view for one producing goroutine: Add is not
// safe for concurrent use on a single ShardWriter, but any number of shards
// may add concurrently. Close flushes and returns the shard's buffers to
// the pool; it must be called (even after errors) before CountRunsCtx.
func (w *Writer) Shard() *ShardWriter {
	s := &ShardWriter{w: w, bufs: make([][]byte, w.cfg.Runs)}
	for i := range s.bufs {
		// Reserve the frame header at the front of each buffer so a flush
		// is a single whole-frame write.
		s.bufs[i] = getBuf(w.cfg.Pool, w.bufBytes+frameHdrLen)[:frameHdrLen]
	}
	return s
}

// ShardWriter buffers one goroutine's records per partition and flushes
// them to the shared run files in whole-frame writes.
type ShardWriter struct {
	w    *Writer
	bufs [][]byte
	recs int64
	err  error
}

// Add appends one record (len must equal the configured RecWidth). After a
// write error Add becomes a no-op and Close reports the first error.
func (s *ShardWriter) Add(rec []byte) {
	if s.err != nil {
		return
	}
	if len(rec) != s.w.cfg.RecWidth {
		s.err = fmt.Errorf("spill: record length %d, want %d", len(rec), s.w.cfg.RecWidth)
		return
	}
	run := s.w.RunOf(rec)
	if len(s.bufs[run])+len(rec) > cap(s.bufs[run]) {
		s.flush(run)
		if s.err != nil {
			return
		}
	}
	s.bufs[run] = append(s.bufs[run], rec...)
	s.recs++
}

// AddU64 appends one one-word record, the key's 8-byte little-endian
// encoding. The writer must have been configured with RecWidth 8.
func (s *ShardWriter) AddU64(key uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], key)
	s.Add(b[:])
}

// flush seals the shard's buffered records for run into one checksummed
// frame and writes it. Whole frames interleave safely across shards under
// the per-run mutex.
func (s *ShardWriter) flush(run int) {
	buf := s.bufs[run]
	if len(buf) <= frameHdrLen {
		return
	}
	payload := buf[frameHdrLen:]
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	w := s.w
	w.mus[run].Lock()
	_, err := w.files[run].Write(buf)
	w.mus[run].Unlock()
	if err != nil {
		s.err = wrapNoSpace(err)
		return
	}
	w.wmu.Lock()
	w.stats.BytesWritten += int64(len(buf))
	w.wmu.Unlock()
	s.bufs[run] = buf[:frameHdrLen]
}

// Close flushes every partition buffer and releases them to the pool. It
// returns the first error the shard hit.
func (s *ShardWriter) Close() error {
	for run := range s.bufs {
		if s.err == nil {
			s.flush(run)
		}
		putBuf(s.w.cfg.Pool, s.bufs[run])
		s.bufs[run] = nil
	}
	s.w.wmu.Lock()
	s.w.stats.RecordsSpilled += s.recs
	s.w.wmu.Unlock()
	s.recs = 0
	return s.err
}

// checkFrameLen validates one partition frame's declared payload length.
func checkFrameLen(run int, off int64, plen, recWidth int) error {
	if plen <= 0 || plen > maxFrameBytes || plen%recWidth != 0 {
		return &CorruptError{Run: run, Off: off, Detail: fmt.Sprintf("bad frame length %d (record width %d)", plen, recWidth)}
	}
	return nil
}

// readChunkBytes is the floor of the pooled read buffer, rounded to whole
// records. Scans read a frame at a time, so peak reader memory stays
// fixed no matter how large a run file grew.
const readChunkBytes = 256 << 10

// chunkLen sizes the pooled read buffer: whole records near
// readChunkBytes, and at least one write buffer plus its frame header.
func (w *Writer) chunkLen() int {
	return max(readChunkBytes-readChunkBytes%w.cfg.RecWidth, w.bufBytes+frameHdrLen)
}

// scanRun streams run r's records through chunk, frame by frame, invoking
// fn once per record (the slice is only valid for the duration of the
// call). fn returning false aborts the scan. Every frame's CRC32C is
// verified before any record from it reaches fn, so corruption surfaces as
// a CorruptError, never as wrong records. Reads go through ReadAt at
// explicit offsets, so any number of scans — of the same or different
// runs — may proceed concurrently without sharing file positions.
func (w *Writer) scanRun(run int, chunk []byte, fn func(rec []byte) bool) error {
	f := w.files[run]
	var hdr [frameHdrLen]byte
	var off int64
	for {
		n, rerr := f.ReadAt(hdr[:], off)
		if n == 0 && rerr == io.EOF {
			return nil
		}
		if n < frameHdrLen {
			if rerr == nil || rerr == io.EOF {
				return &CorruptError{Run: run, Off: off, Detail: fmt.Sprintf("truncated frame header (%d bytes)", n)}
			}
			return rerr
		}
		plen := int(binary.LittleEndian.Uint32(hdr[:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if err := checkFrameLen(run, off, plen, w.cfg.RecWidth); err != nil {
			return err
		}
		if plen > len(chunk) {
			// Longer than any frame a shard flushes: read it whole so its
			// checksum decides, growing the buffer once.
			chunk = make([]byte, plen)
		}
		payload := chunk[:plen]
		pn, perr := f.ReadAt(payload, off+frameHdrLen)
		if pn < plen {
			if perr == nil || perr == io.EOF {
				return &CorruptError{Run: run, Off: off, Detail: fmt.Sprintf("truncated frame payload (%d of %d bytes)", pn, plen)}
			}
			return perr
		}
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return &CorruptError{Run: run, Off: off, Detail: fmt.Sprintf("frame checksum mismatch (got %08x, want %08x)", got, want)}
		}
		for o := 0; o < plen; o += w.cfg.RecWidth {
			if !fn(payload[o : o+w.cfg.RecWidth]) {
				return nil
			}
		}
		off += frameHdrLen + int64(plen)
	}
}

// CountRunsCtx counts each run of records wider than one word into a
// Tally.
//
// Runs hold disjoint keys, so they are counted independently: with
// workers > 1 the runs are split K-way across worker goroutines, each
// reusing one accumulator and one pooled read chunk across its runs.
// Per-run counts are final and identical for every worker count.
//
// emit, when non-nil, is invoked once per fully counted run while its
// accumulator is still live — the caller merges (runs are key-disjoint,
// so plain inserts suffice) or just observes, e.g. sums Len for the
// distinct total; returning false stops the count early, without error.
// emit calls are serialized under an internal lock, but run completion
// order is unspecified with workers > 1, and the accumulator is reused
// for the worker's next run: emit must not retain it. A panic in emit (or
// anywhere in a counting worker) is re-raised on the calling goroutine, so
// the caller's deferred Cleanup still runs.
//
// When ctx fires, workers stop at the next run boundary (and, within a
// run, at the next ctxCheckRecs-record stride), a shared stop flag fans
// the abort out to every worker, and the context's error is returned. A
// nil ctx never cancels, and it (or context.Background()) costs a single
// nil compare per check.
func (w *Writer) CountRunsCtx(ctx context.Context, workers int, emit func(run int, counts *Tally) bool) error {
	return countRuns(ctx, w, workers, NewTally, emit)
}

// CountRunsU64Ctx is CountRunsCtx for one-word records: 8-byte
// little-endian records counted into map[uint64]int — no per-key string
// materialization, the same parallelism and cancellation contract.
func (w *Writer) CountRunsU64Ctx(ctx context.Context, workers int, emit func(run int, counts map[uint64]int) bool) error {
	fresh := func() u64Counts { return make(u64Counts) }
	return countRuns(ctx, w, workers, fresh, func(run int, m u64Counts) bool { return emit == nil || emit(run, m) })
}

// ctxCheckRecs is the in-run cancellation stride: counting workers poll the
// context's done channel once per this many records, so a cancelled count
// aborts mid-run instead of only at run boundaries while the per-record
// cost stays one local increment and mask.
const ctxCheckRecs = 8192

// runCounts is a run-counting accumulator, cleared and reused for a
// worker's next run.
type runCounts interface {
	Add(rec []byte)
	Len() int
	reset()
}

// u64Counts counts one-word records.
type u64Counts map[uint64]int

func (m u64Counts) Add(rec []byte) { m[binary.LittleEndian.Uint64(rec)]++ }
func (m u64Counts) Len() int       { return len(m) }
func (m u64Counts) reset()         { clear(m) }

// Tally counts records with one allocation per distinct record: an index
// from a record to its slot of a counts slice. A record already counted
// costs a lookup by m[string(rec)], which does not allocate, and an
// increment; m[string(rec)]++ on a map[string]int allocates the string on
// every call. A count must stay within int32: the engine counts at most
// math.MaxInt32 rows.
type Tally struct {
	index  map[string]int32
	counts []int32
}

// NewTally returns an empty Tally.
func NewTally() *Tally { return &Tally{index: make(map[string]int32)} }

// Add counts rec once.
func (t *Tally) Add(rec []byte) {
	if i, ok := t.index[string(rec)]; ok {
		t.counts[i]++
		return
	}
	t.index[string(rec)] = int32(len(t.counts))
	t.counts = append(t.counts, 1)
}

// Len returns the distinct records counted.
func (t *Tally) Len() int { return len(t.counts) }

// All yields every distinct record with its count, in no fixed order.
func (t *Tally) All() iter.Seq2[string, int] {
	return func(yield func(string, int) bool) {
		for rec, i := range t.index {
			if !yield(rec, int(t.counts[i])) {
				return
			}
		}
	}
}

func (t *Tally) reset() {
	clear(t.index)
	t.counts = t.counts[:0]
}

// countRuns is the shared run-counting engine behind CountRunsCtx and
// CountRunsU64Ctx: fresh makes a worker's accumulator.
func countRuns[C runCounts](ctx context.Context, w *Writer, workers int, fresh func() C, emit func(run int, counts C) bool) error {
	if w.done {
		return fmt.Errorf("spill: CountRuns after Cleanup")
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	workers = workpool.Resolve(workers, len(w.files))
	var stopped atomic.Bool // emit asked to stop, or the context fired
	errs := make([]error, workers)
	panics := make([]any, workers)
	workpool.RunChunks(len(w.files), workers, func(wk, lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				panics[wk] = r
				stopped.Store(true)
			}
		}()
		chunk := getBuf(w.cfg.Pool, w.chunkLen())
		defer putBuf(w.cfg.Pool, chunk)
		m := fresh()
		var recs int
		for run := lo; run < hi; run++ {
			if stopped.Load() {
				return
			}
			if done != nil {
				select {
				case <-done:
					errs[wk] = ctx.Err()
					stopped.Store(true)
					return
				default:
				}
			}
			m.reset()
			canceled := false
			err := w.scanRun(run, chunk, func(rec []byte) bool {
				if done != nil {
					if recs++; recs%ctxCheckRecs == 0 {
						select {
						case <-done:
							canceled = true
							return false
						default:
						}
					}
				}
				m.Add(rec)
				return true
			})
			if err != nil {
				errs[wk] = err
				return
			}
			if canceled {
				errs[wk] = ctx.Err()
				stopped.Store(true)
				return
			}
			// wmu serializes emit and the MaxRunEntries update (shard
			// writers are closed by count time, so the lock is otherwise
			// uncontended). The deferred unlock keeps the writer usable
			// when a panic in emit is recovered by the caller.
			cont := func() bool {
				w.wmu.Lock()
				defer w.wmu.Unlock()
				if m.Len() > w.stats.MaxRunEntries {
					w.stats.MaxRunEntries = m.Len()
				}
				if emit != nil {
					return emit(run, m)
				}
				return true
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
	for i, f := range w.files {
		if f != nil {
			f.Close()
			w.files[i] = nil
		}
	}
	w.fs.RemoveAll(w.dir)
}

func getBuf(p BufPool, n int) []byte {
	if p == nil {
		return make([]byte, n)
	}
	return p.GetBytes(n)
}

func putBuf(p BufPool, b []byte) {
	if p != nil {
		p.PutBytes(b)
	}
}
