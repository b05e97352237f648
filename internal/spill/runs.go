package spill

// The run codec: the one on-disk layout of pattern counts.
//
// A run is a sequence of self-checksummed frames of (key, count) entries.
// A partition run (Writer) holds what each shard flushed, one frame chain
// per flush: each flush is sorted and its equal keys summed, so a frame is
// strictly ascending but the key order restarts at every frame, and a key
// appears at most once per flush of each shard. It exists only until it is
// counted. A sorted run holds what counting a partition run yields — its
// distinct keys, strictly ascending across the whole run, each with its
// count — and is what a merge-on-read index serves, what an artifact
// persists and what a merge rewrites. The K sorted runs of a spilled index
// (Runs) keep the partition routing of the keys they were counted from,
// so every key still lives in the single run RunOf names. An artifact
// stores an in-memory index as one sorted run in one file, with no
// routing.
//
// A frame holds at most frameEntries entries:
//
//	uint32 payload_len | uint32 entries | uint32 rows | uint32 crc32c | payload
//
// rows is the sum of the frame's counts and crc32c is the CRC32C of the
// first twelve header bytes followed by the payload. A key is W ≥ 1
// uint64 words, ordered lexicographically, and an entry is
//
//	uvarint first-word gap | W-1 uvarint words | uvarint count
//
// where the first word is stored as its gap from the previous entry's
// first word in the same frame (the first entry of a frame: its gap from
// 0) and the remaining words as they are. For one-word keys this is
// delta plus variable-byte coding of sorted integers (Lemire & Boytsov,
// "Decoding billions of integers per second through vectorization", SPE
// 2015): the keys of a high-cardinality run cost three to four bytes
// each instead of a raw key's eight.
//
// RunWriter encodes one run into any writer and ReadRun decodes one from
// any reader. Open walks the frame headers only, so it learns every run's
// entries and rows without decoding a payload and rejects a header that
// promises more entries than its payload bytes can hold. Payloads verify
// as they are read: each frame's checksum before any of its entries is
// decoded, then strict key order (within a frame for a partition run,
// across frames for a sorted one), positive counts, whole varints, totals
// that match the header and, in a Runs or a partition run, keys that
// route to their run.

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"pcbl/internal/iofault"
)

const (
	// sortedHdrLen is the byte length of a sorted-run frame header.
	sortedHdrLen = 16
	// frameEntries bounds the entries of one sorted-run frame, so a reader
	// holds one frame of at most a few tens of KiB at a time.
	frameEntries = 4096
	// maxCountBytes and maxWordBytes are the longest uvarints a count (at
	// most math.MaxUint32) and a key word take.
	maxCountBytes = 5
	maxWordBytes  = binary.MaxVarintLen64
)

// Runs is a directory of K sorted runs. NewRuns creates an empty one that
// RunWriter fills run by run; Open reopens one an artifact adopted. A Runs
// holds the runs' paths, not open files: every read, header walk and run
// write opens its file and closes it when done. Reads are safe for
// concurrent use with each other; Cleanup and AdoptInto must not run
// concurrently with reads or writes.
type Runs struct {
	fs      iofault.FS
	dir     string
	owns    bool // created the files; Cleanup deletes them and the dir
	words   int  // key width W in uint64 words
	paths   []string
	entries []int   // per run: entries, from the frame headers
	rows    []int64 // per run: rows, from the frame headers
	bytes   []int64 // per run: file bytes
	done    bool
}

func newRuns(fsys iofault.FS, dir string, words, runs int) (*Runs, error) {
	if words < 1 {
		return nil, fmt.Errorf("spill: key width must be >= 1 word, got %d", words)
	}
	if runs < 1 {
		return nil, fmt.Errorf("spill: run count must be >= 1, got %d", runs)
	}
	rs := &Runs{
		fs:      fsys,
		dir:     dir,
		words:   words,
		paths:   make([]string, runs),
		entries: make([]int, runs),
		rows:    make([]int64, runs),
		bytes:   make([]int64, runs),
	}
	for i := range rs.paths {
		rs.paths[i] = runPath(dir, i)
	}
	return rs, nil
}

// NewRuns creates K empty sorted runs of words-word keys in a fresh
// private directory under dir (empty means the system temp directory);
// the Runs owns them until AdoptInto. Fill each run once with RunWriter.
// fsys nil means the OS filesystem.
func NewRuns(dir string, words, runs int, fsys iofault.FS) (*Runs, error) {
	fsys = iofault.Resolve(fsys)
	tmp, err := fsys.MkdirTemp(dir, "pcbl-runs-*")
	if err != nil {
		return nil, wrapNoSpace(err)
	}
	rs, err := newRuns(fsys, tmp, words, runs)
	if err != nil {
		fsys.RemoveAll(tmp)
		return nil, err
	}
	rs.owns = true
	for _, p := range rs.paths {
		f, err := fsys.Create(p)
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			rs.Cleanup()
			return nil, wrapNoSpace(err)
		}
	}
	return rs, nil
}

// Open reopens a directory of sorted runs read-only — the runs a label
// artifact adopted. Every run's frame chain is walked header by header:
// a truncated frame, a bad length, or a frame promising more entries or
// fewer rows than its payload can hold fails with a CorruptError, and the
// totals the headers declare are available from Entries and Rows without
// any payload read. Payloads verify on first read. The Runs does not own
// the files: Cleanup leaves them and the directory intact. fsys nil means
// the OS filesystem.
func Open(dir string, words, runs int, fsys iofault.FS) (*Runs, error) {
	rs, err := newRuns(iofault.Resolve(fsys), dir, words, runs)
	if err != nil {
		return nil, err
	}
	for i := range rs.paths {
		if err := rs.walkHeaders(i); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// walkHeaders validates run's frame chain from its headers alone and
// records the run's entries, rows and bytes.
func (rs *Runs) walkHeaders(run int) error {
	f, err := rs.fs.Open(rs.paths[run])
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	var hdr [sortedHdrLen]byte
	var off int64
	for off < size {
		if size-off < sortedHdrLen {
			return &CorruptError{Run: run, Off: off, Detail: fmt.Sprintf("truncated frame header (%d trailing bytes)", size-off)}
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return err
		}
		plen, n, rows := parseHeader(hdr[:])
		if err := checkHeader(rs.words, run, off, plen, n, rows); err != nil {
			return err
		}
		if off+sortedHdrLen+int64(plen) > size {
			return &CorruptError{Run: run, Off: off,
				Detail: fmt.Sprintf("frame declares %d payload bytes, file ends %d short", plen, off+sortedHdrLen+int64(plen)-size)}
		}
		rs.entries[run] += n
		rs.rows[run] += int64(rows)
		off += sortedHdrLen + int64(plen)
	}
	rs.bytes[run] = size
	return nil
}

func parseHeader(hdr []byte) (plen, entries int, rows uint32) {
	return int(binary.LittleEndian.Uint32(hdr[0:4])), int(binary.LittleEndian.Uint32(hdr[4:8])), binary.LittleEndian.Uint32(hdr[8:12])
}

// checkHeader validates one frame header of a run of words-word keys:
// between 1 and frameEntries entries, a payload long enough to hold them
// (at least a byte per word and a count byte each) and no longer than
// their longest encoding, and at least one row per entry.
func checkHeader(words, run int, off int64, plen, entries int, rows uint32) error {
	switch {
	case entries < 1 || entries > frameEntries:
		return &CorruptError{Run: run, Off: off, Detail: fmt.Sprintf("frame declares %d entries, want 1 to %d", entries, frameEntries)}
	case plen < entries*(words+1) || plen > entries*(words*maxWordBytes+maxCountBytes):
		return &CorruptError{Run: run, Off: off, Detail: fmt.Sprintf("frame declares %d entries in %d payload bytes", entries, plen)}
	case int64(rows) < int64(entries):
		return &CorruptError{Run: run, Off: off, Detail: fmt.Sprintf("frame declares %d entries over %d rows", entries, rows)}
	}
	return nil
}

// NumRuns returns the run count K.
func (rs *Runs) NumRuns() int { return len(rs.paths) }

// Words returns the key width W in uint64 words.
func (rs *Runs) Words() int { return rs.words }

// Dir returns the directory holding the run files.
func (rs *Runs) Dir() string { return rs.dir }

// Entries returns run's entry count: what its frame headers declare for
// an opened run, what was written for a new one.
func (rs *Runs) Entries(run int) int { return rs.entries[run] }

// Rows returns the sum of every run's row totals.
func (rs *Runs) Rows() int64 {
	var n int64
	for _, r := range rs.rows {
		n += r
	}
	return n
}

// Bytes returns the run files' total length, frame headers included.
func (rs *Runs) Bytes() int64 {
	var n int64
	for _, b := range rs.bytes {
		n += b
	}
	return n
}

// RunOf returns the run a key routes to: the partition its words,
// little-endian, hash to, so a key counted from partition run r is found
// in run r.
func (rs *Runs) RunOf(key []uint64) int { return runOfKey(key, len(rs.paths)) }

// RunWriter encodes one sorted run: entries are added in strictly
// ascending key order with positive counts, framed as they accumulate,
// and written in batches of whole frames. Close must be called, after
// errors too. A RunWriter is not safe for concurrent use; distinct runs
// may be written concurrently.
type RunWriter struct {
	w       io.Writer
	words   int
	buf     []byte   // sealed frames not yet written, then the open frame
	frame   int      // offset of the open frame's header in buf
	n       int      // entries in the open frame
	rows    uint64   // rows in the open frame
	last    []uint64 // previous key
	entries int
	total   int64
	written int64
	err     error

	// Set when the writer fills run of rs, whose file f it closes.
	rs  *Runs
	run int
	f   iofault.File
}

// writeBatchBytes is how many bytes of sealed frames a RunWriter gathers
// before it writes them in one call.
const writeBatchBytes = 64 << 10

// runBufs recycles RunWriter buffers: a batch plus one one-word-key frame
// at its longest, so a merge writing one run after another reuses them.
var runBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, writeBatchBytes+sortedHdrLen+frameEntries*(maxWordBytes+maxCountBytes))
	return &b
}}

// NewRunWriter starts one sorted run of words-word keys, words >= 1,
// written to w, which sees a write per batch of frames and one more at
// Close.
func NewRunWriter(w io.Writer, words int) *RunWriter {
	rw := &RunWriter{}
	rw.reset(w, words)
	return rw
}

// reset starts a new run of words-word keys written to out, keeping the
// writer's buffers; a writer without one takes a pooled buffer.
func (w *RunWriter) reset(out io.Writer, words int) {
	buf := w.buf
	if buf == nil {
		buf = *runBufs.Get().(*[]byte)
	}
	*w = RunWriter{w: out, words: words, buf: append(buf[:0], make([]byte, sortedHdrLen)...), last: w.last[:0]}
}

// RunWriter starts writing run, which must still be empty: it creates the
// run's file, and Close closes it and records the run's totals.
func (rs *Runs) RunWriter(run int) *RunWriter {
	f, err := rs.fs.Create(rs.paths[run])
	rw := NewRunWriter(f, rs.words)
	rw.rs, rw.run, rw.f, rw.err = rs, run, f, wrapNoSpace(err)
	return rw
}

// Add appends an entry: a key of the run's W words, which must ascend
// from the previous entry's, and its positive count.
func (w *RunWriter) Add(key []uint64, count int) {
	if w.err != nil {
		return
	}
	if len(key) != w.words {
		w.err = fmt.Errorf("spill: run %d key of %d words, want %d", w.run, len(key), w.words)
		return
	}
	if w.entries > 0 && slices.Compare(key, w.last) <= 0 {
		w.err = fmt.Errorf("spill: run %d entry %d: key %v does not ascend from %v", w.run, w.entries, key, w.last)
		return
	}
	if !w.fits(count) {
		return
	}
	gap := key[0]
	if w.n > 0 {
		gap -= w.last[0]
	}
	w.buf = binary.AppendUvarint(w.buf, gap)
	for _, word := range key[1:] {
		w.buf = binary.AppendUvarint(w.buf, word)
	}
	w.last = append(w.last[:0], key...)
	w.add(count)
}

// fits checks count and seals the open frame first when count would take
// its row total past a uint32.
func (w *RunWriter) fits(count int) bool {
	if count <= 0 || count > math.MaxUint32 {
		w.err = fmt.Errorf("spill: run %d entry %d has count %d", w.run, w.entries, count)
		return false
	}
	if w.rows+uint64(count) > math.MaxUint32 {
		w.seal()
	}
	return w.err == nil
}

func (w *RunWriter) add(count int) {
	w.buf = binary.AppendUvarint(w.buf, uint64(count))
	w.n++
	w.rows += uint64(count)
	w.entries++
	w.total += int64(count)
	if w.n == frameEntries {
		w.seal()
	}
}

// seal fills in the open frame's header and checksum, writes the sealed
// frames once a batch has gathered, and opens the next frame.
func (w *RunWriter) seal() {
	if w.n == 0 || w.err != nil {
		return
	}
	hdr, payload := w.buf[w.frame:w.frame+sortedHdrLen], w.buf[w.frame+sortedHdrLen:]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(w.n))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(w.rows))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Update(crc32.Checksum(hdr[:12], castagnoli), castagnoli, payload))
	w.n, w.rows = 0, 0
	if len(w.buf) >= writeBatchBytes {
		w.write()
	}
	w.frame = len(w.buf)
	w.buf = append(w.buf, make([]byte, sortedHdrLen)...)
}

// write writes the sealed frames gathered in buf.
func (w *RunWriter) write() {
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = wrapNoSpace(err)
		return
	}
	w.written += int64(len(w.buf))
	w.buf = w.buf[:0]
}

// finish seals and writes the last frames and returns the first error
// the writer hit.
func (w *RunWriter) finish() error {
	w.seal()
	if w.err == nil {
		w.buf = w.buf[:w.frame] // drop the empty open frame
		if len(w.buf) > 0 {
			w.write()
		}
	}
	return w.err
}

// Close seals and writes the last frames, closes the run's file when the
// writer has one, and records the run's totals in its Runs. It returns the
// first error the writer hit.
func (w *RunWriter) Close() error {
	w.finish()
	if w.f != nil {
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	if w.rs != nil && w.err == nil {
		w.rs.entries[w.run] = w.entries
		w.rs.rows[w.run] = w.total
		w.rs.bytes[w.run] = w.written
	}
	buf := w.buf[:0]
	runBufs.Put(&buf)
	w.buf = nil
	return w.err
}

// ReadRun streams the entries of the one sorted run of words-word keys,
// words >= 1, that r holds, in ascending key order; the key slice is
// valid only during the call. Every frame is verified (checksum, then
// strict key order across frames, positive counts, whole varints and
// totals matching its header) as it is decoded, and a failure is a
// CorruptError; fn may then have seen a prefix of the entries, which the
// caller must discard. fn returning false stops the scan. ctx (nil never
// cancels) is checked once per frame.
func ReadRun(ctx context.Context, r io.ReaderAt, words int, fn func(key []uint64, count int) bool) error {
	rr := runReader{words: words}
	return rr.read(ctx, r, 0, fn)
}

// Each is ReadRun over run of rs, which also verifies that every key
// routes to run.
func (rs *Runs) Each(ctx context.Context, run int, fn func(key []uint64, count int) bool) error {
	if rs.done {
		return fmt.Errorf("spill: read after Cleanup")
	}
	if run < 0 || run >= len(rs.paths) {
		return fmt.Errorf("spill: run %d out of range [0, %d)", run, len(rs.paths))
	}
	f, err := rs.fs.Open(rs.paths[run])
	if err != nil {
		return err
	}
	defer f.Close()
	rr := runReader{words: rs.words, runs: len(rs.paths)}
	return rr.read(ctx, f, run, fn)
}

// runReader decodes runs of words-word keys, reusing its buffers from one
// run to the next. With runs > 0 it checks that every key routes to the
// run read; perFrame checks key order within each frame only, as a
// partition run's flushes restart it.
type runReader struct {
	words, runs int
	perFrame    bool
	hdr         [sortedHdrLen]byte
	payload     []byte
	key, prev   []uint64
}

// read is ReadRun over run.
func (rr *runReader) read(ctx context.Context, r io.ReaderAt, run int, fn func(key []uint64, count int) bool) error {
	if rr.key == nil {
		rr.key, rr.prev = make([]uint64, rr.words), make([]uint64, rr.words)
	}
	key, prev := rr.key, rr.prev
	var off int64
	started := false
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		payload, entries, rows, err := rr.frame(r, run, off)
		if err != nil || entries == 0 {
			return err
		}
		bad := func(what string, args ...any) error {
			return &CorruptError{Run: run, Off: off, Detail: fmt.Sprintf(what, args...)}
		}
		started = started && !rr.perFrame
		p := payload
		left := uint64(rows)
		for i := 0; i < entries; i++ {
			for j := range key {
				word, m := binary.Uvarint(p)
				if m <= 0 {
					return bad("entry %d: truncated or overlong key word %d", i, j)
				}
				p = p[m:]
				key[j] = word
			}
			if i > 0 {
				if key[0] > math.MaxUint64-prev[0] {
					return bad("entry %d: keys do not ascend", i)
				}
				key[0] += prev[0]
			}
			if started && slices.Compare(key, prev) <= 0 {
				return bad("entry %d: key %v does not ascend from %v", i, key, prev)
			}
			if rr.runs > 0 {
				if r := runOfKey(key, rr.runs); r != run {
					return bad("entry %d: key %v routes to run %d", i, key, r)
				}
			}
			copy(prev, key)
			started = true
			c, m := binary.Uvarint(p)
			if m <= 0 {
				return bad("entry %d: truncated or overlong count", i)
			}
			p = p[m:]
			if c == 0 || c > left {
				return bad("entry %d: count %d with %d of the frame's %d rows left", i, c, left, rows)
			}
			left -= c
			if !fn(key, int(c)) {
				return nil
			}
		}
		if len(p) != 0 || left != 0 {
			return bad("%d payload bytes and %d of %d rows past the frame's %d entries", len(p), left, rows, entries)
		}
		off += sortedHdrLen + int64(len(payload))
	}
}

// frame reads and checksums run's frame at off into the reader's payload
// buffer (grown as needed), returning its payload and header totals; no
// entries means the run ends at off.
func (rr *runReader) frame(r io.ReaderAt, run int, off int64) (payload []byte, entries int, rows uint32, err error) {
	hdr := rr.hdr[:]
	n, rerr := r.ReadAt(hdr, off)
	if n == 0 && rerr == io.EOF {
		return nil, 0, 0, nil
	}
	if n < sortedHdrLen {
		if rerr == nil || rerr == io.EOF {
			return nil, 0, 0, &CorruptError{Run: run, Off: off, Detail: fmt.Sprintf("truncated frame header (%d bytes)", n)}
		}
		return nil, 0, 0, rerr
	}
	plen, entries, rows := parseHeader(hdr)
	if err := checkHeader(rr.words, run, off, plen, entries, rows); err != nil {
		return nil, 0, 0, err
	}
	if plen > cap(rr.payload) {
		rr.payload = make([]byte, plen)
	}
	payload = rr.payload[:plen]
	if pn, perr := r.ReadAt(payload, off+sortedHdrLen); pn < plen {
		if perr == nil || perr == io.EOF {
			return nil, 0, 0, &CorruptError{Run: run, Off: off, Detail: fmt.Sprintf("truncated frame payload (%d of %d bytes)", pn, plen)}
		}
		return nil, 0, 0, perr
	}
	want := binary.LittleEndian.Uint32(hdr[12:16])
	if got := crc32.Update(crc32.Checksum(hdr[:12], castagnoli), castagnoli, payload); got != want {
		return nil, 0, 0, &CorruptError{Run: run, Off: off, Detail: fmt.Sprintf("frame checksum mismatch (got %08x, want %08x)", got, want)}
	}
	return payload, entries, rows, nil
}

// AdoptInto relocates the run files into dst (an existing directory) and
// hands their ownership to it: the Runs keeps serving reads from the new
// location, and Cleanup thereafter deletes nothing. Owned files move by
// rename, with a copy fallback when rename cannot cross the filesystem
// boundary; runs that are not owned (already adopted, or reopened with
// Open) are copied instead, so adopting the same runs into a second
// artifact never steals them from the first. Each run reads from its new
// path as soon as it has moved, so a failed adoption leaves every run
// readable. Adoption is durable on return: every adopted run is fsynced
// through a fresh handle (copies also before the source is ever deleted),
// then dst's directory entries are fsynced. Must not run concurrently
// with reads or writes.
func (rs *Runs) AdoptInto(dst string) error {
	if rs.done {
		return fmt.Errorf("spill: AdoptInto after Cleanup")
	}
	for i, src := range rs.paths {
		dstPath := runPath(dst, i)
		moved := rs.owns && rs.fs.Rename(src, dstPath) == nil
		// A failed rename (typically EXDEV: dst on another filesystem)
		// falls through to copying this run.
		if !moved {
			if err := rs.copyRun(src, dstPath); err != nil {
				return fmt.Errorf("spill: adopting run %d: %w", i, wrapNoSpace(err))
			}
		}
		rs.paths[i] = dstPath
	}
	// Durability barrier: runs written during a build or merge were never
	// fsynced (their own directory is transient). The artifact the runs now
	// belong to must survive a crash once its manifest commits, so flush
	// file data first, then the directory entries.
	for i, p := range rs.paths {
		if err := syncFile(rs.fs, p); err != nil {
			return fmt.Errorf("spill: syncing adopted run %d: %w", i, err)
		}
	}
	if err := rs.fs.SyncDir(dst); err != nil {
		return fmt.Errorf("spill: syncing adopted run directory: %w", err)
	}
	if rs.owns {
		rs.fs.RemoveAll(rs.dir)
	}
	rs.dir = dst
	rs.owns = false
	return nil
}

// syncFile fsyncs the file at path through a handle of its own.
func syncFile(fsys iofault.FS, path string) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// copyRun copies the run at src to dstPath and fsyncs the copy. The copy
// is durable before the function returns, so a caller that deletes the
// source afterwards can never lose the run to a crash.
func (rs *Runs) copyRun(src, dstPath string) error {
	in, err := rs.fs.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	fi, err := in.Stat()
	if err != nil {
		return err
	}
	out, err := rs.fs.Create(dstPath)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, io.NewSectionReader(in, 0, fi.Size())); err != nil {
		out.Close()
		rs.fs.Remove(dstPath)
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		rs.fs.Remove(dstPath)
		return err
	}
	if err := out.Close(); err != nil {
		rs.fs.Remove(dstPath)
		return err
	}
	return nil
}

// Cleanup retires the Runs and, when it owns the runs (created by NewRuns
// and not relocated by AdoptInto), deletes the files and their directory.
// It is idempotent and safe after partial construction.
func (rs *Runs) Cleanup() {
	if rs.done {
		return
	}
	rs.done = true
	if rs.owns {
		rs.fs.RemoveAll(rs.dir)
	}
}
