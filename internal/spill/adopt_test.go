package spill

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pcbl/internal/iofault"
)

// spillRecords partitions n records of width bytes — keys of width/8
// words, little-endian — into five runs and seals them into sorted runs,
// returning those plus the reference counts.
func spillRecords(t *testing.T, n, distinct, width int) (*Runs, map[string]int) {
	t.Helper()
	return spillRecordsFS(t, nil, n, distinct, width)
}

// spillRecordsFS is spillRecords with the I/O routed through fsys.
func spillRecordsFS(t *testing.T, fsys iofault.FS, n, distinct, width int) (*Runs, map[string]int) {
	t.Helper()
	w, ref := partitionRecords(t, fsys, n, distinct, width)
	defer w.Cleanup()
	return sealRecords(t, w, fsys), ref
}

// partitionRecords writes n records through two shards into five
// partition runs and returns the writer plus the reference counts.
func partitionRecords(t *testing.T, fsys iofault.FS, n, distinct, width int) (*Writer, map[string]int) {
	t.Helper()
	recs, ref := genRecords(n, distinct, width, 0xADAF)
	w, err := NewWriter(Config{RecWidth: width, Runs: 5, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, w, recs, 2)
	return w, ref
}

// recordKey is the key of a record: its little-endian words.
func recordKey(rec string) []uint64 {
	key := make([]uint64, len(rec)/8)
	for i := range key {
		key[i] = binary.LittleEndian.Uint64([]byte(rec[8*i:]))
	}
	return key
}

// keyRecord is the record of a key.
func keyRecord(key []uint64) string {
	var rec []byte
	for _, word := range key {
		rec = binary.LittleEndian.AppendUint64(rec, word)
	}
	return string(rec)
}

// sealRecords counts w's partition runs and writes each as a sorted run,
// as a spilled build does.
func sealRecords(t *testing.T, w *Writer, fsys iofault.FS) *Runs {
	t.Helper()
	rs, err := NewRuns("", w.cfg.RecWidth/8, w.NumRuns(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	if err := w.CountRunsCtx(nil, 1, func(run int, counts *Tally) bool {
		keys := make([][]uint64, 0, counts.Len())
		byRec := make(map[string]int, counts.Len())
		for k, c := range counts.All() {
			keys = append(keys, recordKey(k))
			byRec[k] = c
		}
		slices.SortFunc(keys, slices.Compare)
		rw := rs.RunWriter(run)
		for _, k := range keys {
			rw.Add(k, byRec[keyRecord(k)])
		}
		werr = rw.Close()
		return werr == nil
	}); err != nil || werr != nil {
		t.Fatal(err, werr)
	}
	return rs
}

// countAll reads every run of rs into one map of records, checking that
// each key routes to the run holding it.
func countAll(t *testing.T, rs *Runs) map[string]int {
	t.Helper()
	got := make(map[string]int)
	for run := 0; run < rs.NumRuns(); run++ {
		if err := rs.Each(nil, run, func(key []uint64, c int) bool {
			if rs.RunOf(key) != run {
				t.Fatalf("key %x in run %d routes to run %d", key, run, rs.RunOf(key))
			}
			got[keyRecord(key)] += c
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

func assertCounts(t *testing.T, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("distinct keys: got %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %x: got %d, want %d", k, got[k], v)
		}
	}
}

func TestAdoptIntoRelocatesAndSurvivesCleanup(t *testing.T) {
	w, ref := spillRecords(t, 4000, 300, 16)
	defer w.Cleanup()
	oldDir := w.Dir()

	dst := t.TempDir()
	if err := w.AdoptInto(dst); err != nil {
		t.Fatal(err)
	}
	if w.Dir() != dst {
		t.Fatalf("Dir() = %q, want %q", w.Dir(), dst)
	}
	if _, err := os.Stat(oldDir); !os.IsNotExist(err) {
		t.Fatalf("old spill dir %q not removed after adoption", oldDir)
	}
	// The Runs must keep serving the relocated runs from their new paths.
	assertCounts(t, countAll(t, w), ref)

	// Cleanup of a Runs that no longer owns its files must leave the
	// adopted files on disk.
	w.Cleanup()
	for i := 0; i < w.NumRuns(); i++ {
		if _, err := os.Stat(runPath(dst, i)); err != nil {
			t.Fatalf("adopted run %d missing after Cleanup: %v", i, err)
		}
	}
}

func TestOpenServesAdoptedRuns(t *testing.T) {
	w, ref := spillRecords(t, 4000, 300, 16)
	defer w.Cleanup()

	dst := t.TempDir()
	if err := w.AdoptInto(dst); err != nil {
		t.Fatal(err)
	}
	runs, words := w.NumRuns(), 2

	// Record where each key routes before closing the original writer;
	// routing must be identical after reopen (deterministic hash).
	routes := make(map[string]int, len(ref))
	for k := range ref {
		routes[k] = w.RunOf(recordKey(k))
	}
	w.Cleanup()

	r, err := Open(dst, words, runs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cleanup()
	assertCounts(t, countAll(t, r), ref)
	for k, run := range routes {
		if got := r.RunOf(recordKey(k)); got != run {
			t.Fatalf("key %x routes to run %d after reopen, spilled into run %d", k, got, run)
		}
	}

	// Reopen cleanup must not delete the artifact's runs either.
	r.Cleanup()
	for i := 0; i < runs; i++ {
		if _, err := os.Stat(runPath(dst, i)); err != nil {
			t.Fatalf("run %d missing after reopen Cleanup: %v", i, err)
		}
	}
}

func TestSecondAdoptionCopiesInsteadOfStealing(t *testing.T) {
	w, ref := spillRecords(t, 2000, 150, 16)
	defer w.Cleanup()

	first, second := t.TempDir(), t.TempDir()
	if err := w.AdoptInto(first); err != nil {
		t.Fatal(err)
	}
	if err := w.AdoptInto(second); err != nil {
		t.Fatal(err)
	}
	// Both artifact directories must hold complete, independently readable
	// run sets.
	for _, dir := range []string{first, second} {
		r, err := Open(dir, 2, w.NumRuns(), nil)
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		assertCounts(t, countAll(t, r), ref)
		r.Cleanup()
	}
}

func TestOpenRejectsTruncatedRun(t *testing.T) {
	w, _ := spillRecords(t, 1000, 80, 16)
	defer w.Cleanup()
	dst := t.TempDir()
	if err := w.AdoptInto(dst); err != nil {
		t.Fatal(err)
	}
	// Chop one byte off a run so its last frame is truncated.
	path := runPath(dst, 0)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dst, 2, w.NumRuns(), nil); err == nil {
		t.Fatal("Open accepted a truncated run file")
	}
}

func TestOpenMissingRun(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "run-0000"), make([]byte, 12), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 2, 2, nil); err == nil {
		t.Fatal("Open accepted a directory missing run files")
	}
}

// TestOpenChecksSortedHeaders: Open rejects, from frame headers alone, a
// frame whose entries could not fit its payload (at least two bytes an
// entry), that declares no entries or more than a frame holds, or fewer
// rows than entries — so the entries a run declares, which size its load,
// are bounded by its bytes on disk.
func TestOpenChecksSortedHeaders(t *testing.T) {
	rs, err := NewRuns(t.TempDir(), 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Cleanup()
	rw := rs.RunWriter(0)
	for k := uint64(0); k < 100; k++ {
		rw.Add([]uint64{k * 1000}, 1)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(runPath(rs.Dir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if r, err := Open(rs.Dir(), 1, 1, nil); err != nil || r.Entries(0) != 100 || r.Rows() != 100 {
		t.Fatalf("Open of the saved run: %v", err)
	} else {
		r.Cleanup()
	}
	plen := binary.LittleEndian.Uint32(saved[0:4])
	for _, tc := range []struct {
		name          string
		entries, rows uint32
	}{
		{"entries past payload/2", plen/2 + 1, plen},
		{"no entries", 0, 100},
		{"entries past a frame", frameEntries + 1, frameEntries + 1},
		{"rows under entries", 100, 99},
	} {
		data := slices.Clone(saved)
		binary.LittleEndian.PutUint32(data[4:8], tc.entries)
		binary.LittleEndian.PutUint32(data[8:12], tc.rows)
		binary.LittleEndian.PutUint32(data[12:16], crc32.Update(crc32.Checksum(data[:12], castagnoli), castagnoli, data[sortedHdrLen:]))
		dir := t.TempDir()
		if err := os.WriteFile(runPath(dir, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, 1, 1, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", tc.name, err)
		}
	}
}
