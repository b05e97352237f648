package spill

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"testing"
)

// genRecords produces n fixed-width records drawn from a pool of distinct
// keys, plus the reference count map.
func genRecords(n, distinct, width int, seed uint64) (recs [][]byte, ref map[string]int) {
	rng := rand.New(rand.NewPCG(seed, 0x5B111))
	keys := make([][]byte, distinct)
	for i := range keys {
		k := make([]byte, width)
		for j := range k {
			k[j] = byte(rng.UintN(256))
		}
		// Distinctness by construction: stamp the index into the prefix.
		k[0], k[1] = byte(i), byte(i>>8)
		keys[i] = k
	}
	ref = make(map[string]int)
	recs = make([][]byte, n)
	for i := range recs {
		k := keys[rng.IntN(distinct)]
		recs[i] = k
		ref[string(k)]++
	}
	return recs, ref
}

func writeAll(t *testing.T, w *Writer, recs [][]byte, shards int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, shards)
	chunk := (len(recs) + shards - 1) / shards
	for s := 0; s < shards; s++ {
		lo := s * chunk
		hi := min(lo+chunk, len(recs))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			sw := w.Shard()
			for _, r := range recs[lo:hi] {
				sw.Add(r)
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

func TestGroupByMatchesReference(t *testing.T) {
	const width = 6
	recs, ref := genRecords(20000, 900, width, 7)
	for _, runs := range []int{1, 4, 7} {
		for _, shards := range []int{1, 2, 8} {
			// workers exercises the parallel K-way count phase; results
			// must be identical for every worker count.
			workers := shards
			t.Run(fmt.Sprintf("runs=%d_shards=%d_workers=%d", runs, shards, workers), func(t *testing.T) {
				w, err := NewWriter(Config{RecWidth: width, Runs: runs, Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Cleanup()
				writeAll(t, w, recs, shards)
				got := make(map[string]int)
				seenRuns := 0
				err = w.CountRunsCtx(nil, workers, func(run int, m *Tally) bool {
					seenRuns++
					for k, c := range m.All() {
						if _, dup := got[k]; dup {
							t.Fatalf("key emitted by two runs: partition not disjoint")
						}
						got[k] = c
					}
					return true
				})
				if err != nil {
					t.Fatalf("CountRuns: %v", err)
				}
				if len(got) != len(ref) {
					t.Fatalf("emitted %d keys, want %d", len(got), len(ref))
				}
				for k, c := range ref {
					if got[k] != c {
						t.Fatalf("count mismatch for a key: got %d, want %d", got[k], c)
					}
				}
				st := w.Stats()
				// BytesWritten includes the 8-byte checksum header of each
				// flushed frame: payload bytes plus a whole number of headers.
				payload := int64(len(recs) * width)
				if st.RecordsSpilled != int64(len(recs)) || st.BytesWritten < payload || (st.BytesWritten-payload)%frameHdrLen != 0 {
					t.Fatalf("stats: %+v, want %d records / >= %d payload bytes plus whole frame headers", st, len(recs), payload)
				}
				if st.MaxRunEntries > len(ref) || (runs > 1 && st.MaxRunEntries == len(ref) && len(ref) > 100) {
					t.Fatalf("MaxRunEntries = %d of %d distinct across %d runs: partitioning is not spreading keys", st.MaxRunEntries, len(ref), runs)
				}
			})
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
	recs, _ := genRecords(1000, 50, 4, 3)
	parent := t.TempDir()
	w, err := NewWriter(Config{RecWidth: 4, Runs: 3, Dir: parent})
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, w, recs, 1)
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
	recs, _ := genRecords(1000, 50, 4, 5)
	var w *Writer
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected the injected panic")
			}
		}()
		var err error
		w, err = NewWriter(Config{RecWidth: 4, Runs: 3, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Cleanup()
		sw := w.Shard()
		for i, r := range recs {
			if i == 500 {
				panic("injected mid-scan failure")
			}
			sw.Add(r)
		}
	}()
	assertEmptyDir(t, w, "after panic unwound through the deferred cleanup")
}

// countingPool counts buffer traffic to verify spill recycles through the
// pool rather than allocating per shard or per read.
type countingPool struct {
	mu         sync.Mutex
	gets, puts int
	free       [][]byte
}

func (p *countingPool) GetBytes(n int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gets++
	for i, b := range p.free {
		if cap(b) >= n {
			p.free = append(p.free[:i], p.free[i+1:]...)
			return b[:n]
		}
	}
	return make([]byte, n)
}

func (p *countingPool) PutBytes(b []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.puts++
	p.free = append(p.free, b)
}

func TestBuffersCycleThroughPool(t *testing.T) {
	recs, ref := genRecords(3000, 80, 4, 9)
	pool := &countingPool{}
	const runs = 4
	w, err := NewWriter(Config{RecWidth: 4, Runs: runs, Dir: t.TempDir(), Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Cleanup()
	writeAll(t, w, recs, 2)
	size := 0
	err = w.CountRunsCtx(nil, 1, func(_ int, m *Tally) bool {
		size += m.Len()
		return true
	})
	if err != nil || size != len(ref) {
		t.Fatalf("size=%d err=%v, want %d", size, err, len(ref))
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	// 2 shards × runs write buffers + 1 read chunk, all returned.
	want := 2*runs + 1
	if pool.gets != want || pool.puts != want {
		t.Fatalf("pool traffic gets=%d puts=%d, want %d each", pool.gets, pool.puts, want)
	}
}

func TestWriterRejectsBadConfig(t *testing.T) {
	if _, err := NewWriter(Config{RecWidth: 0, Runs: 1}); err == nil {
		t.Fatal("zero record width accepted")
	}
	if _, err := NewWriter(Config{RecWidth: 4, Runs: 0}); err == nil {
		t.Fatal("zero run count accepted")
	}
}

func TestAddRejectsWrongWidth(t *testing.T) {
	w, err := NewWriter(Config{RecWidth: 4, Runs: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Cleanup()
	sw := w.Shard()
	sw.Add([]byte{1, 2, 3})
	if err := sw.Close(); err == nil {
		t.Fatal("wrong-width record accepted")
	}
}
