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
	w, ref := spillRecordsFS(t, ffs, 4000, 300, 16)
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
		w, ref := spillRecordsFS(t, ffs, 4000, 300, 16)
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
	err = w.CountRunsCtx(nil, 2, nil)
	if err == nil {
		t.Fatal("CountRuns accepted a corrupted frame")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption error not typed: %v", err)
	}
}

// TestShardWritePropagatesFault: a write fault during sharding — a flush
// inside ShardWriter.Add, once a partition buffer fills — stops the shard
// taking records and surfaces from ShardWriter.Close, not as a panic or
// silent data loss.
func TestShardWritePropagatesFault(t *testing.T) {
	ffs := iofault.NewFaultFS(nil)
	w, err := NewWriter(Config{RecWidth: 6, Runs: 3, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Cleanup()
	ffs.FailFrom(iofault.OpWrite, 2, nil)
	// About 80 KB per run: past one bufBytes(3, 6) buffer, so Add flushes.
	recs, _ := genRecords(40000, 100, 6, 0xBEE)
	s := w.Shard()
	for _, r := range recs {
		s.Add(r)
	}
	// The faulted second write happened inside Add, and no Add after it
	// wrote again.
	if n := ffs.Counts()[iofault.OpWrite]; n != 2 {
		t.Fatalf("%d writes before Close, want 2", n)
	}
	if err := s.Close(); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("shard close after write fault: %v, want ErrInjected", err)
	}
	if n := ffs.Counts()[iofault.OpWrite]; n != 2 {
		t.Fatalf("%d writes after Close of a failed shard, want 2", n)
	}
	if got := w.Stats().RecordsSpilled; got >= int64(len(recs)) {
		t.Fatalf("shard took all %d records after its write fault", got)
	}
}
