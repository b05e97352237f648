package spill

import (
	"os"
	"path/filepath"
	"testing"
)

// spillRecords writes n records through one shard and returns the writer
// plus the reference counts.
func spillRecords(t *testing.T, n, distinct, width int) (*Writer, map[string]int) {
	t.Helper()
	recs, ref := genRecords(n, distinct, width, 0xADAF)
	w, err := NewWriter(Config{RecWidth: width, Runs: 5})
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, w, recs, 2)
	return w, ref
}

// countAll merges every run of w into one map.
func countAll(t *testing.T, w *Writer) map[string]int {
	t.Helper()
	got := make(map[string]int)
	_, _, err := w.CountRunsCtx(nil, -1, 1, func(run int, counts map[string]int) bool {
		for k, v := range counts {
			got[k] += v
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
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
	w, ref := spillRecords(t, 4000, 300, 6)
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
	// The open descriptors must keep serving the relocated runs.
	assertCounts(t, countAll(t, w), ref)

	// Cleanup of a non-owning writer closes descriptors but must leave the
	// adopted files on disk.
	w.Cleanup()
	for i := 0; i < w.NumRuns(); i++ {
		if _, err := os.Stat(runPath(dst, i)); err != nil {
			t.Fatalf("adopted run %d missing after Cleanup: %v", i, err)
		}
	}
}

func TestOpenServesAdoptedRuns(t *testing.T) {
	w, ref := spillRecords(t, 4000, 300, 6)
	defer w.Cleanup()

	dst := t.TempDir()
	if err := w.AdoptInto(dst); err != nil {
		t.Fatal(err)
	}
	runs, width := w.NumRuns(), 6

	// Record where each key routes before closing the original writer;
	// routing must be identical after reopen (deterministic hash).
	routes := make(map[string]int, len(ref))
	for k := range ref {
		routes[k] = w.RunOf([]byte(k))
	}
	w.Cleanup()

	r, err := Open(dst, width, runs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cleanup()
	assertCounts(t, countAll(t, r), ref)
	for k, run := range routes {
		if got := r.RunOf([]byte(k)); got != run {
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
	w, ref := spillRecords(t, 2000, 150, 6)
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
		r, err := Open(dir, 6, w.NumRuns(), nil, nil)
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		assertCounts(t, countAll(t, r), ref)
		r.Cleanup()
	}
}

func TestOpenRejectsTruncatedRun(t *testing.T) {
	w, _ := spillRecords(t, 1000, 80, 6)
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
	if _, err := Open(dst, 6, w.NumRuns(), nil, nil); err == nil {
		t.Fatal("Open accepted a truncated run file")
	}
}

func TestOpenMissingRun(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "run-0000"), make([]byte, 12), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 6, 2, nil, nil); err == nil {
		t.Fatal("Open accepted a directory missing run files")
	}
}
