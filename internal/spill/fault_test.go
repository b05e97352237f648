package spill

// Fault-injection tests for the run files' durability seams: the EXDEV
// copy fallback of AdoptInto, frame-corruption detection, and write-fault
// propagation through shards.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pcbl/internal/iofault"
)

// TestAdoptIntoCopyFallbackIsDurable forces every rename to fail — the
// EXDEV case, dst on another filesystem — so AdoptInto must fall back to
// copying. The copies must be fsynced before the source directory is
// deleted (the sync counter proves the ordering), and the adopted runs
// must count identically.
func TestAdoptIntoCopyFallbackIsDurable(t *testing.T) {
	ffs := iofault.NewFaultFS(nil)
	w, ref := spillRecordsFS(t, ffs, 4000, 300, 6)
	defer w.Cleanup()
	oldDir := w.Dir()

	syncsBefore := ffs.Counts()[iofault.OpSync]
	ffs.FailFrom(iofault.OpRename, 1, errors.New("simulated EXDEV"))
	dst := t.TempDir()
	if err := w.AdoptInto(dst); err != nil {
		t.Fatalf("AdoptInto with rename disabled: %v", err)
	}
	if w.Dir() != dst {
		t.Fatalf("Dir() = %q, want %q", w.Dir(), dst)
	}
	if _, err := os.Stat(oldDir); !os.IsNotExist(err) {
		t.Fatalf("source dir still present after copy adoption: %v", err)
	}
	// Each of the 5 runs is fsynced once by copyRun and once by the
	// adoption durability barrier; either way, at least one sync per run
	// must have happened before AdoptInto returned (and so before the
	// source delete that follows the barrier).
	if syncs := ffs.Counts()[iofault.OpSync] - syncsBefore; syncs < int64(w.NumRuns()) {
		t.Fatalf("only %d fsyncs during copy adoption of %d runs", syncs, w.NumRuns())
	}
	for i := 0; i < w.NumRuns(); i++ {
		if _, err := os.Stat(filepath.Join(dst, filepath.Base(runPath(dst, i)))); err != nil {
			t.Fatalf("adopted run %d missing: %v", i, err)
		}
	}
	assertCounts(t, countAll(t, w), ref)
}

// TestAdoptIntoCopyFaultKeepsSource: when the copy itself fails (create or
// write fault mid-copy), AdoptInto must return an error and the writer
// must keep serving from the source runs — a failed adoption loses nothing.
func TestAdoptIntoCopyFaultKeepsSource(t *testing.T) {
	for _, op := range []iofault.Op{iofault.OpCreate, iofault.OpWrite, iofault.OpSync} {
		ffs := iofault.NewFaultFS(nil)
		w, ref := spillRecordsFS(t, ffs, 4000, 300, 6)
		ffs.FailFrom(iofault.OpRename, 1, errors.New("simulated EXDEV"))
		ffs.FailAt(op, ffs.Counts()[op]+2, nil) // second occurrence inside the copy
		if err := w.AdoptInto(t.TempDir()); err == nil {
			t.Fatalf("op %v: AdoptInto succeeded despite copy fault", op)
		}
		ffs.Reset()
		assertCounts(t, countAll(t, w), ref)
		w.Cleanup()
	}
}

// TestScanDetectsFrameCorruption flips one payload byte in a framed
// partition run and asserts the scan reports a typed corruption error
// instead of feeding the damaged records to the callback.
func TestScanDetectsFrameCorruption(t *testing.T) {
	w, _ := partitionRecords(t, nil, 4000, 300, 6)
	defer w.Cleanup()
	// Corrupt a payload byte (past the 8-byte header) of the largest run.
	var victim string
	for i := 0; i < w.NumRuns(); i++ {
		p := runPath(w.Dir(), i)
		if fi, err := os.Stat(p); err == nil && fi.Size() > frameHdrLen {
			victim = p
			break
		}
	}
	if victim == "" {
		t.Fatal("no non-empty run to corrupt")
	}
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHdrLen+len(data)/2%max(len(data)-frameHdrLen, 1)] ^= 0xFF
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = w.CountRunsCtx(nil, -1, 2, nil)
	if err == nil {
		t.Fatal("CountRuns accepted a corrupted frame")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption error not typed: %v", err)
	}
}

// TestShardWritePropagatesFault: a write fault during sharding surfaces
// from ShardWriter.Close, not as a panic or silent data loss.
func TestShardWritePropagatesFault(t *testing.T) {
	ffs := iofault.NewFaultFS(nil)
	w, err := NewWriter(Config{RecWidth: 6, Runs: 3, BufBytes: 64, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Cleanup()
	ffs.FailFrom(iofault.OpWrite, 2, nil)
	recs, _ := genRecords(2000, 100, 6, 0xBEE)
	s := w.Shard()
	for _, r := range recs {
		s.Add(r)
	}
	if err := s.Close(); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("shard close after write fault: %v, want ErrInjected", err)
	}
}

// TestMultiWriterWriteFaultIsolatesTarget injects a single write fault
// during a shared partition pass: exactly one target must record the
// error (and stop receiving records), while every sibling's runs still
// count exactly against its reference.
func TestMultiWriterWriteFaultIsolatesTarget(t *testing.T) {
	const n, distinct, width = 4000, 150, 6
	ffs := iofault.NewFaultFS(nil)
	cfgs := make([]Config, 3)
	streams := make([][][]byte, 3)
	refs := make([]map[string]int, 3)
	for i := range cfgs {
		// Tiny buffers force flushes mid-pass, so the fault lands while
		// siblings still have records in flight.
		cfgs[i] = Config{RecWidth: width, Runs: 3, BufBytes: 64, FS: ffs}
		streams[i], refs[i] = genRecords(n, distinct, width, 0xF417+uint64(i))
	}
	mw := NewMultiWriter(cfgs, 0)
	defer mw.Cleanup()
	ffs.FailAt(iofault.OpWrite, ffs.Counts()[iofault.OpWrite]+5, nil)
	ms := mw.Shard()
	for r := 0; r < n; r++ {
		for i := range cfgs {
			ms.Add(i, streams[i][r])
		}
	}
	ms.Close()

	failed := -1
	for i := range cfgs {
		if err := mw.Err(i); err != nil {
			if !errors.Is(err, iofault.ErrInjected) {
				t.Fatalf("target %d: error %v, want ErrInjected", i, err)
			}
			if failed != -1 {
				t.Fatalf("targets %d and %d both failed on one injected fault", failed, i)
			}
			failed = i
		}
	}
	if failed == -1 {
		t.Fatal("no target recorded the injected write fault")
	}
	for i := range cfgs {
		if i == failed {
			continue
		}
		counts := make(map[string]int)
		size, _, err := mw.Writer(i).CountRunsCtx(nil, -1, 1, func(_ int, m map[string]int) bool {
			for k, c := range m {
				counts[k] = c
			}
			return true
		})
		if err != nil {
			t.Fatalf("sibling %d count after target %d failed: %v", i, failed, err)
		}
		if size != len(refs[i]) {
			t.Fatalf("sibling %d: size %d, want %d", i, size, len(refs[i]))
		}
		for k, c := range refs[i] {
			if counts[k] != c {
				t.Fatalf("sibling %d: key %q = %d, want %d", i, k, counts[k], c)
			}
		}
	}
}

// TestMultiWriterCreateFaultIsolatesTarget fails one target's run-file
// creation: NewMultiWriter must still return a usable writer where only
// that target is nil/failed and the siblings partition and count exactly.
func TestMultiWriterCreateFaultIsolatesTarget(t *testing.T) {
	const n, distinct, width = 2000, 80, 6
	ffs := iofault.NewFaultFS(nil)
	cfgs := make([]Config, 3)
	streams := make([][][]byte, 3)
	refs := make([]map[string]int, 3)
	for i := range cfgs {
		cfgs[i] = Config{RecWidth: width, Runs: 3, FS: ffs}
		streams[i], refs[i] = genRecords(n, distinct, width, 0xC4EA7+uint64(i))
	}
	// Runs are created target by target: occurrence 4 is the middle
	// target's first run file.
	ffs.FailAt(iofault.OpCreate, ffs.Counts()[iofault.OpCreate]+4, nil)
	mw := NewMultiWriter(cfgs, 0)
	defer mw.Cleanup()
	if mw.Writer(1) != nil || !errors.Is(mw.Err(1), iofault.ErrInjected) {
		t.Fatalf("target 1: writer %v err %v, want nil writer with ErrInjected", mw.Writer(1), mw.Err(1))
	}
	ms := mw.Shard()
	if !ms.Failed(1) {
		t.Fatal("shard does not report the dead target as failed")
	}
	for r := 0; r < n; r++ {
		for i := range cfgs {
			ms.Add(i, streams[i][r]) // adds to the dead target are no-ops
		}
	}
	ms.Close()
	for _, i := range []int{0, 2} {
		if err := mw.Err(i); err != nil {
			t.Fatalf("sibling %d errored: %v", i, err)
		}
		size, _, err := mw.Writer(i).CountRunsCtx(nil, -1, 1, nil)
		if err != nil || size != len(refs[i]) {
			t.Fatalf("sibling %d: size=%d err=%v, want %d", i, size, err, len(refs[i]))
		}
	}
}
