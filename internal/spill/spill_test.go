package spill

import (
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"sync"
	"testing"
)

// genKeys produces n keys of words uint64 words drawn from a pool of
// distinct keys, plus the reference counts by keyRecord.
func genKeys(n, distinct, words int, seed uint64) (keys [][]uint64, ref map[string]int) {
	rng := rand.New(rand.NewPCG(seed, 0x5B111))
	pool := make([][]uint64, distinct)
	for i := range pool {
		k := make([]uint64, words)
		for j := range k {
			k[j] = rng.Uint64()
		}
		// Distinctness by construction: stamp the index into the low bits.
		k[0] = k[0]<<16 | uint64(i)
		pool[i] = k
	}
	ref = make(map[string]int)
	keys = make([][]uint64, n)
	for i := range keys {
		k := pool[rng.IntN(distinct)]
		keys[i] = k
		ref[keyRecord(k)]++
	}
	return keys, ref
}

func writeAll(t *testing.T, w *Writer, keys [][]uint64, shards int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, shards)
	chunk := (len(keys) + shards - 1) / shards
	for s := 0; s < shards; s++ {
		lo := s * chunk
		hi := min(lo+chunk, len(keys))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			sw := w.Shard()
			for _, k := range keys[lo:hi] {
				sw.Add(k, 1)
			}
			errs[s] = sw.Close()
		}(s, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// countRuns counts every run of w with workers and returns the counts by
// keyRecord, checking that each run's entries ascend strictly, route to
// it, and that no key is emitted by two runs.
func countRuns(t *testing.T, w *Writer, workers int) map[string]int {
	t.Helper()
	got := make(map[string]int)
	words := w.cfg.Words
	if err := w.CountRunsCtx(nil, workers, func(run int, keys []uint64, counts []int32) bool {
		for i, c := range counts {
			key := keys[i*words : (i+1)*words]
			if i > 0 && slices.Compare(key, keys[(i-1)*words:i*words]) <= 0 {
				t.Fatalf("run %d: key %x after %x", run, key, keys[(i-1)*words:i*words])
			}
			if r := runOfKey(key, w.NumRuns()); r != run {
				t.Fatalf("key %x routes to run %d, counted in run %d", key, r, run)
			}
			if _, dup := got[keyRecord(key)]; dup {
				t.Fatalf("key emitted by two runs: partition not disjoint")
			}
			got[keyRecord(key)] = int(c)
		}
		return true
	}); err != nil {
		t.Fatalf("CountRuns: %v", err)
	}
	return got
}

func TestGroupByMatchesReference(t *testing.T) {
	const words = 2
	keys, ref := genKeys(20000, 900, words, 7)
	for _, runs := range []int{1, 4, 7} {
		for _, shards := range []int{1, 2, 8} {
			// workers exercises the parallel K-way count phase; results
			// must be identical for every worker count.
			workers := shards
			t.Run(fmt.Sprintf("runs=%d_shards=%d_workers=%d", runs, shards, workers), func(t *testing.T) {
				w, err := NewWriter(Config{Words: words, Runs: runs, Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Cleanup()
				writeAll(t, w, keys, shards)
				// The partition runs are codec frames whose headers account
				// for every row added and every entry flushed, and whose
				// bytes are the ones counted as written.
				st := w.Stats()
				part, err := Open(w.Dir(), words, runs, nil)
				if err != nil {
					t.Fatalf("partition runs do not walk as codec frames: %v", err)
				}
				for run := range runs {
					if part.Entries(run) != w.runs[run].entries {
						t.Fatalf("run %d headers declare %d entries, flushed %d", run, part.Entries(run), w.runs[run].entries)
					}
				}
				if st.RecordsSpilled != int64(len(keys)) || part.Rows() != st.RecordsSpilled || part.Bytes() != st.BytesWritten {
					t.Fatalf("stats %+v: headers declare %d rows in %d bytes, want %d rows in %d bytes",
						st, part.Rows(), part.Bytes(), len(keys), st.BytesWritten)
				}
				assertCounts(t, countRuns(t, w, workers), ref)
				st = w.Stats()
				if st.MaxRunEntries > len(ref) || (runs > 1 && st.MaxRunEntries == len(ref) && len(ref) > 100) {
					t.Fatalf("MaxRunEntries = %d of %d distinct across %d runs: partitioning is not spreading keys", st.MaxRunEntries, len(ref), runs)
				}
			})
		}
	}
}

// TestFlushSumsRepeatedKeys pins the per-flush sums: however often a key
// repeats, a shard writes it once per flush of its run, so the partition
// run's frame headers declare at most ⌈adds / flushEntries⌉ entries for
// it, and the count emits it once with its full count — for one key, and
// for two keys alternating into different runs.
func TestFlushSumsRepeatedKeys(t *testing.T) {
	const adds, runs = 100_000, 4
	second := []uint64{2}
	for runOfKey(second, runs) == runOfKey([]uint64{1}, runs) {
		second[0]++
	}
	for _, hot := range [][][]uint64{{{1}}, {{1}, second}} {
		t.Run(fmt.Sprintf("keys=%d", len(hot)), func(t *testing.T) {
			w, err := NewWriter(Config{Words: 1, Runs: runs, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Cleanup()
			sw := w.Shard()
			for i := range adds * len(hot) {
				sw.Add(hot[i%len(hot)], 1)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			part, err := Open(w.Dir(), 1, runs, nil)
			if err != nil {
				t.Fatal(err)
			}
			bound := (adds + w.flushEntries - 1) / w.flushEntries
			for _, key := range hot {
				if n := part.Entries(runOfKey(key, runs)); n > bound {
					t.Fatalf("key %d: run holds %d entries for %d adds, want at most %d", key, n, adds, bound)
				}
			}
			got := countRuns(t, w, 2)
			if len(got) != len(hot) {
				t.Fatalf("count emitted %d keys, want %d", len(got), len(hot))
			}
			for _, key := range hot {
				if c := got[keyRecord(key)]; c != adds {
					t.Fatalf("key %d counted %d, want %d", key, c, adds)
				}
			}
		})
	}
}

// TestCountSumsWithinShare pins the count's share: a run of repeated
// keys holds far more entries than distinct keys, as each flush sums only
// its own, and the count sums its buffer in place each time it fills, so
// it holds Config.Share bytes however many entries the flushes wrote. A
// share too small for a run's distinct keys grows the buffer to at most
// twice them. Counts match the reference either way.
func TestCountSumsWithinShare(t *testing.T) {
	const adds, distinct, runs = 200_000, 3_000, 2
	for _, words := range []int{1, 2} {
		keys, ref := genKeys(adds, distinct, words, 7)
		perRun := make([]int, runs)
		for rec := range ref {
			perRun[runOfKey(recordKey(rec), runs)]++
		}
		most := slices.Max(perRun)
		entry := int64(2 * (8*words + 4))
		for _, share := range []int64{4 * int64(most) * entry, int64(most) * entry / 2} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("words=%d/share=%d/workers=%d", words, share, workers), func(t *testing.T) {
					w, err := NewWriter(Config{Words: words, Runs: runs, Share: share, Dir: t.TempDir()})
					if err != nil {
						t.Fatal(err)
					}
					defer w.Cleanup()
					writeAll(t, w, keys, 2)
					entries := 0
					for i := range w.runs {
						entries = max(entries, w.runs[i].entries)
					}
					if int64(entries)*entry <= 2*share {
						t.Fatalf("largest run holds %d entries, want more than twice the share's %d", entries, share/entry)
					}
					got := countRuns(t, w, workers)
					if len(got) != len(ref) {
						t.Fatalf("count emitted %d keys, want %d", len(got), len(ref))
					}
					for rec, c := range ref {
						if got[rec] != c {
							t.Fatalf("key %x counted %d, want %d", rec, got[rec], c)
						}
					}
					held := w.Stats().MaxCountBytes
					if bound := max(share, 2*int64(most)*entry); held > bound || held <= 0 {
						t.Fatalf("count held %d bytes, want (0, %d]: share %d, at most %d distinct keys a run", held, bound, share, most)
					}
				})
			}
		}
	}
}

// TestSorterSumsEqualKeys holds Sorter.Sum to a map over random entries
// of one, two and three words, reusing one Sorter across sizes.
func TestSorterSumsEqualKeys(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 0))
	var s Sorter
	for _, words := range []int{1, 2, 3} {
		for _, n := range []int{0, 1, 2, 500, 3000, 100} {
			keys := make([]uint64, 0, n*words)
			counts := make([]int32, 0, n)
			ref := make(map[string]int)
			for range n {
				key := make([]uint64, words)
				for j := range key {
					key[j] = rng.Uint64N(40) << (rng.IntN(4) * 16)
				}
				c := 1 + rng.Int32N(5)
				keys = append(keys, key...)
				counts = append(counts, c)
				ref[keyRecord(key)] += int(c)
			}
			ks, cs := s.Sum(keys, counts, words)
			if len(cs) != len(ref) || len(ks) != words*len(cs) {
				t.Fatalf("words=%d n=%d: %d entries over %d words, want %d distinct", words, n, len(cs), len(ks), len(ref))
			}
			for i, c := range cs {
				key := ks[i*words : (i+1)*words]
				if i > 0 && slices.Compare(key, ks[(i-1)*words:i*words]) <= 0 {
					t.Fatalf("words=%d n=%d: entry %d out of order", words, n, i)
				}
				if int(c) != ref[keyRecord(key)] {
					t.Fatalf("words=%d n=%d: key %v summed to %d, want %d", words, n, key, c, ref[keyRecord(key)])
				}
			}
		}
	}
}

// assertEmptyDir checks the writer's private run directory is gone.
func assertEmptyDir(t *testing.T, w *Writer, when string) {
	t.Helper()
	if _, err := os.Stat(w.Dir()); !os.IsNotExist(err) {
		t.Fatalf("%s: spill dir %s still exists (stat err %v)", when, w.Dir(), err)
	}
}

func TestCleanupOnSuccess(t *testing.T) {
	keys, _ := genKeys(1000, 50, 1, 3)
	parent := t.TempDir()
	w, err := NewWriter(Config{Words: 1, Runs: 3, Dir: parent})
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, w, keys, 1)
	if err := w.CountRunsCtx(nil, 1, nil); err != nil {
		t.Fatal(err)
	}
	w.Cleanup()
	w.Cleanup() // idempotent
	assertEmptyDir(t, w, "after success cleanup")
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("parent dir not empty after cleanup: %d entries", len(ents))
	}
}

// TestCleanupOnPanic pins the deferred-Cleanup idiom every caller uses: a
// panic anywhere between NewWriter and the final merge still removes the
// run files.
func TestCleanupOnPanic(t *testing.T) {
	keys, _ := genKeys(1000, 50, 1, 5)
	var w *Writer
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected the injected panic")
			}
		}()
		var err error
		w, err = NewWriter(Config{Words: 1, Runs: 3, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Cleanup()
		sw := w.Shard()
		for i, k := range keys {
			if i == 500 {
				panic("injected mid-scan failure")
			}
			sw.Add(k, 1)
		}
	}()
	assertEmptyDir(t, w, "after panic unwound through the deferred cleanup")
}

func TestWriterRejectsBadConfig(t *testing.T) {
	if _, err := NewWriter(Config{Words: 0, Runs: 1}); err == nil {
		t.Fatal("zero key width accepted")
	}
	if _, err := NewWriter(Config{Words: 1, Runs: 0}); err == nil {
		t.Fatal("zero run count accepted")
	}
}

// TestAddRejectsWrongWidth: a key of the wrong width, and a count outside
// [1, maxCount], fail the shard.
func TestAddRejectsWrongWidth(t *testing.T) {
	for _, tc := range []struct {
		name  string
		key   []uint64
		count int
	}{
		{"wrong width", []uint64{1, 2, 3}, 1},
		{"zero count", []uint64{1, 2}, 0},
		{"count past int32", []uint64{1, 2}, maxCount + 1},
	} {
		w, err := NewWriter(Config{Words: 2, Runs: 2, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		sw := w.Shard()
		sw.Add(tc.key, tc.count)
		if err := sw.Close(); err == nil {
			t.Errorf("%s: entry accepted", tc.name)
		}
		w.Cleanup()
	}
}
