package spill

// Fault-injection tests for the run files' durability seams: the EXDEV
// copy fallback of AdoptInto, frame-corruption detection in partition
// runs, and write-fault propagation through shards.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
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
	w, ref := spillRecordsFS(t, ffs, 4000, 300, 2)
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
		w, ref := spillRecordsFS(t, ffs, 4000, 300, 2)
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

// TestScanDetectsFrameCorruption damages a partition run's codec frames
// and asserts the count reports a typed corruption error instead of
// counting the damaged entries: a flipped payload byte, a frame cut short,
// keys out of order within a frame, and a key routed to another run.
func TestScanDetectsFrameCorruption(t *testing.T) {
	// frame encodes one frame of one-word keys, the keys gap-coded in the
	// order given, each with count 1.
	frame := func(keys ...uint64) []byte {
		var payload []byte
		prev := uint64(0)
		for _, k := range keys {
			payload = binary.AppendUvarint(payload, k-prev)
			payload = binary.AppendUvarint(payload, 1)
			prev = k
		}
		hdr := make([]byte, sortedHdrLen)
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(keys)))
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(keys)))
		binary.LittleEndian.PutUint32(hdr[12:16], crc32.Update(crc32.Checksum(hdr[:12], castagnoli), castagnoli, payload))
		return append(hdr, payload...)
	}
	// keyIn returns a one-word key at or past from that routes to run of
	// five.
	keyIn := func(run int, from uint64) uint64 {
		for runOfKey([]uint64{from}, 5) != run {
			from++
		}
		return from
	}
	k0 := keyIn(0, 1<<20)
	for _, tc := range []struct {
		name   string
		damage func(data []byte) []byte
	}{
		{"flipped payload byte", func(data []byte) []byte {
			data[sortedHdrLen+(len(data)-sortedHdrLen)/2] ^= 0xFF
			return data
		}},
		{"cut frame", func(data []byte) []byte { return data[:len(data)-1] }},
		// k0 then a smaller key: the second gap cannot be coded, so the
		// frame repeats k0, which is out of order just the same.
		{"keys out of order", func(data []byte) []byte { return append(data, frame(k0, k0)...) }},
		{"key of another run", func(data []byte) []byte { return append(data, frame(keyIn(1, 1<<20))...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, _ := partitionRecords(t, nil, 4000, 300, 1)
			defer w.Cleanup()
			victim := runPath(w.Dir(), 0)
			data, err := os.ReadFile(victim)
			if err != nil || len(data) <= sortedHdrLen {
				t.Fatalf("run 0 holds %d bytes (%v), want a frame", len(data), err)
			}
			if err := os.WriteFile(victim, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			err = w.CountRunsCtx(nil, 2, nil)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("count of a damaged run = %v, want ErrCorrupt", err)
			}
		})
	}
	// The frames appended above are well formed: each damage is the only
	// thing wrong with its run.
	w, _ := partitionRecords(t, nil, 4000, 300, 1)
	defer w.Cleanup()
	victim := runPath(w.Dir(), 0)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, append(data, frame(k0, keyIn(0, k0+1))...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.CountRunsCtx(nil, 2, nil); err != nil {
		t.Fatalf("count of a run with an appended valid frame: %v", err)
	}
}

// TestShardWritePropagatesFault: a write fault during sharding — a flush
// inside ShardWriter.Add, once a partition buffer fills — stops the shard
// taking entries and surfaces from ShardWriter.Close, not as a panic or
// silent data loss.
func TestShardWritePropagatesFault(t *testing.T) {
	ffs := iofault.NewFaultFS(nil)
	w, err := NewWriter(Config{Words: 1, Runs: 3, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Cleanup()
	ffs.FailFrom(iofault.OpWrite, 2, nil)
	// About 13,000 entries per run: past two flushEntries(3, 1) buffers,
	// so Add flushes.
	keys, _ := genKeys(40000, 100, 1, 0xBEE)
	s := w.Shard()
	for _, k := range keys {
		s.Add(k, 1)
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
	if got := w.Stats().RecordsSpilled; got >= int64(len(keys)) {
		t.Fatalf("shard took all %d records after its write fault", got)
	}
}
