package spill

// Tests for the uint64 record format and the parallel K-way run-counting
// phase: format round trips, partition-routing consistency, and the
// temp-file lifecycle under success, an early stop and injected panics
// with multiple counting workers.

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// genU64 produces n uint64 records drawn from a pool of distinct keys,
// plus the reference count map.
func genU64(n, distinct int, seed uint64) (keys []uint64, ref map[uint64]int) {
	rng := rand.New(rand.NewPCG(seed, 0x64B17))
	pool := make([]uint64, distinct)
	for i := range pool {
		pool[i] = rng.Uint64()<<16 | uint64(i) // distinct by construction
	}
	ref = make(map[uint64]int)
	keys = make([]uint64, n)
	for i := range keys {
		k := pool[rng.IntN(distinct)]
		keys[i] = k
		ref[k]++
	}
	return keys, ref
}

func TestGroupByU64MatchesReference(t *testing.T) {
	keys, ref := genU64(20000, 700, 13)
	for _, runs := range []int{1, 5} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("runs=%d_workers=%d", runs, workers), func(t *testing.T) {
				w, err := NewWriter(Config{RecWidth: 8, Runs: runs, Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Cleanup()
				var wg sync.WaitGroup
				errs := make([]error, 2)
				for s := 0; s < 2; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						sw := w.Shard()
						for i := s; i < len(keys); i += 2 {
							sw.AddU64(keys[i])
						}
						errs[s] = sw.Close()
					}(s)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				got := make(map[uint64]int)
				err = w.CountRunsU64Ctx(nil, workers, func(run int, m map[uint64]int) bool {
					for k, c := range m {
						if _, dup := got[k]; dup {
							t.Fatalf("key emitted by two runs: partition not disjoint")
						}
						if r := runOfKey([]uint64{k}, w.NumRuns()); r != run {
							t.Fatalf("key routes to run %d, counted in run %d", r, run)
						}
						got[k] = c
					}
					return true
				})
				if err != nil || len(got) != len(ref) {
					t.Fatalf("CountRunsU64: %d distinct, err=%v, want %d", len(got), err, len(ref))
				}
				for k, c := range ref {
					if got[k] != c {
						t.Fatalf("key %d: got count %d, want %d", k, got[k], c)
					}
				}
			})
		}
	}
}

// TestScanRunRoundTrip pins the merge-on-read reading surface: a sealed
// run streams exactly its entries, in strictly ascending key order, every
// key routes back to its run, and the runs together reproduce the
// reference counts — for two-word keys and for gap-coded one-word keys
// spanning many frames.
func TestScanRunRoundTrip(t *testing.T) {
	const width = 16
	rs, ref := spillRecords(t, 8000, 300, width)
	defer rs.Cleanup()
	for run := 0; run < rs.NumRuns(); run++ {
		var last []uint64
		n := 0
		if err := rs.Each(nil, run, func(key []uint64, c int) bool {
			if last != nil && slices.Compare(key, last) <= 0 {
				t.Fatalf("run %d: key %x after %x", run, key, last)
			}
			last = append(last[:0], key...)
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n != rs.Entries(run) {
			t.Fatalf("run %d streamed %d entries, wrote %d", run, n, rs.Entries(run))
		}
	}
	got := countAll(t, rs)
	if len(got) != len(ref) {
		t.Fatalf("scanned %d distinct keys, want %d", len(got), len(ref))
	}
	for k, c := range ref {
		if got[k] != c {
			t.Fatalf("key count mismatch: got %d, want %d", got[k], c)
		}
	}

	// One-word keys: 3 runs of up to 3 frames each, with gaps from 1 to 2^40.
	u, err := NewRuns(t.TempDir(), 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Cleanup()
	want := make([][]uint64, 3)
	rng := rand.New(rand.NewPCG(22, 0))
	key := uint64(0)
	for i := 0; i < 3*frameEntries; i++ {
		key += 1 + rng.Uint64N(1<<uint(rng.IntN(41)))
		run := u.RunOf([]uint64{key})
		want[run] = append(want[run], key)
	}
	var rows int64
	for run, keys := range want {
		rw := u.RunWriter(run)
		for i, k := range keys {
			rw.Add([]uint64{k}, 1+i%7)
			rows += int64(1 + i%7)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Open(u.Dir(), 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cleanup()
	if r.Rows() != rows {
		t.Fatalf("headers declare %d rows, wrote %d", r.Rows(), rows)
	}
	for run, keys := range want {
		if r.Entries(run) != len(keys) {
			t.Fatalf("run %d headers declare %d entries, wrote %d", run, r.Entries(run), len(keys))
		}
		i := 0
		if err := r.Each(nil, run, func(k []uint64, c int) bool {
			if k[0] != keys[i] || c != 1+i%7 {
				t.Fatalf("run %d entry %d = (%d, %d), wrote (%d, %d)", run, i, k[0], c, keys[i], 1+i%7)
			}
			i++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if i != len(keys) {
			t.Fatalf("run %d streamed %d entries, wrote %d", run, i, len(keys))
		}
	}
}

// TestParallelCountLifecycle pins the temp-file lifecycle of parallel run
// counting: the private directory is removed after a successful count,
// after an emit that stops the count early, and when a panic injected
// into emit unwinds through the caller's deferred Cleanup — with multiple
// counting workers in every case.
func TestParallelCountLifecycle(t *testing.T) {
	const workers = 4
	build := func(t *testing.T) *Writer {
		t.Helper()
		recs, _ := genRecords(4000, 260, 4, 23)
		w, err := NewWriter(Config{RecWidth: 4, Runs: 8, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		writeAll(t, w, recs, 2)
		return w
	}

	t.Run("success", func(t *testing.T) {
		w := build(t)
		if err := w.CountRunsCtx(nil, workers, nil); err != nil {
			t.Fatal(err)
		}
		w.Cleanup()
		assertEmptyDir(t, w, "after parallel success")
	})

	t.Run("emit-stop", func(t *testing.T) {
		w := build(t)
		emitted := 0
		if err := w.CountRunsCtx(nil, workers, func(int, *Tally) bool {
			emitted++
			return false
		}); err != nil || emitted == 0 || emitted >= w.NumRuns() {
			t.Fatalf("emit-stop: err=%v after %d of %d runs, want nil after fewer than all", err, emitted, w.NumRuns())
		}
		w.Cleanup()
		assertEmptyDir(t, w, "after parallel emit stop")
	})

	t.Run("panic", func(t *testing.T) {
		var w *Writer
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatal("expected the injected panic to reach the caller")
				}
			}()
			w = build(t)
			defer w.Cleanup()
			w.CountRunsCtx(nil, workers, func(run int, m *Tally) bool {
				panic("injected mid-merge failure")
			})
		}()
		assertEmptyDir(t, w, "after panic unwound through the deferred cleanup")
		// The writer must stay usable for error reporting after a recovered
		// panic (no lock left held).
		if err := w.CountRunsCtx(nil, workers, nil); err == nil {
			t.Fatal("CountRuns after Cleanup should error")
		}
	})
}
