package core

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// sortedEntries draws n (key, count) entries with keys of the given bit
// width, about a third of them repeats, so sort-and-compress has equal
// keys to sum.
func sortedEntries(rng *rand.Rand, n, bits int) (keys []uint64, counts []int32) {
	for i := 0; i < n; i++ {
		key := rng.Uint64() >> (64 - bits)
		if i > 0 && rng.IntN(3) == 0 {
			key = keys[rng.IntN(i)]
		}
		keys = append(keys, key)
		counts = append(counts, int32(1+rng.IntN(5)))
	}
	return keys, counts
}

// checkSorted asserts s is the exact-size sorted layout of want.
func checkSorted(t *testing.T, s *SortedCounts, want map[uint64]int) {
	t.Helper()
	if len(s.Keys) != len(want) || len(s.Counts) != len(want) {
		t.Fatalf("layout holds %d keys and %d counts, want %d", len(s.Keys), len(s.Counts), len(want))
	}
	if cap(s.Keys) != len(s.Keys) || cap(s.Counts) != len(s.Counts) {
		t.Fatalf("layout slices are not exact-size: cap %d/%d, len %d", cap(s.Keys), cap(s.Counts), len(s.Keys))
	}
	assertLayout(t, s)
	for key, c := range want {
		if got := s.lookup(key); got != c {
			t.Fatalf("lookup(%d) = %d, want %d", key, got, c)
		}
	}
}

func TestSortedFromMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x50, 0x27))
	for _, bits := range []int{1, 8, 13, 31, 40, 63} {
		for _, n := range []int{0, 1, 2, 3, 100, 5000} {
			keys, counts := sortedEntries(rng, n, bits)
			want := make(map[uint64]int)
			for i, key := range keys {
				want[key] += int(counts[i])
			}
			checkSorted(t, sortedFrom(keys, counts, 1), want)
			checkSorted(t, sortedFromMap(want), want)
		}
	}
}

// TestSortedFromWide: keys of two and three words sort lexicographically
// word by word, equal keys sum, and every key looks up its total.
func TestSortedFromWide(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x51, 0x27))
	for _, w := range []int{2, 3} {
		for _, n := range []int{0, 1, 2, 100, 5000} {
			var keys []uint64
			var counts []int32
			want := make(map[[3]uint64]int)
			for i := 0; i < n; i++ {
				var key [3]uint64
				if i > 0 && rng.IntN(3) == 0 {
					copy(key[:w], keys[w*rng.IntN(i):])
				} else {
					for j := range w {
						key[j] = rng.Uint64N(1 << (5 * (j + 1)))
					}
				}
				c := int32(1 + rng.IntN(5))
				keys, counts = append(keys, key[:w]...), append(counts, c)
				want[key] += int(c)
			}
			s := sortedFrom(keys, counts, w)
			if s.W != w || len(s.Counts) != len(want) || len(s.Keys) != w*len(want) {
				t.Fatalf("w=%d n=%d: layout of %d-word keys holds %d key words and %d counts, want %d entries", w, n, s.W, len(s.Keys), len(s.Counts), len(want))
			}
			assertLayout(t, s)
			for key, c := range want {
				if got := s.lookupKey(key[:w]); got != c {
					t.Fatalf("w=%d n=%d: lookupKey(%v) = %d, want %d", w, n, key[:w], got, c)
				}
			}
			if got := s.lookupKey([]uint64{1 << 62, 0, 0}[:w]); got != 0 {
				t.Fatalf("w=%d: absent key counts %d", w, got)
			}
		}
	}
}

// assertLayout asserts the invariants a lookup relies on: W words for
// every count, keys strictly ascending, every count positive.
func assertLayout(t *testing.T, s *SortedCounts) {
	t.Helper()
	if len(s.Keys) != s.W*len(s.Counts) {
		t.Fatalf("layout has %d key words for %d counts of %d-word keys", len(s.Keys), len(s.Counts), s.W)
	}
	for i, c := range s.Counts {
		if i > 0 && slices.Compare(s.entry(i), s.entry(i-1)) <= 0 {
			t.Fatalf("key %v at entry %d does not ascend from %v", s.entry(i), i, s.entry(i-1))
		}
		if c <= 0 {
			t.Fatalf("count %d at entry %d is not positive", c, i)
		}
	}
}

// TestPCFromReprChecksSortedLayout: the intake of a decoded layout takes
// it whole when its keys have the attribute set's width and lie in its
// key space, giving it the representation a build over the given rows
// picks, and rejects a layout of another width, with keys missing, or
// with a key past the key space.
func TestPCFromReprChecksSortedLayout(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 40, attrs: 4, domain: 5}, 0x54)
	s := lattice.FullSet(4) // a one-word key space of 625 slots
	ok := &SortedCounts{W: 1, Keys: []uint64{1, 5, 9}, Counts: []int32{2, 1, 7}}
	for _, tc := range []struct {
		rows int
		repr string
	}{{40, "dense"}, {1, "sorted"}} {
		pc := must(PCFromRepr(d, PCRepr{Attrs: s, U: ok}, tc.rows))
		if got := pcRepr(pc); got != tc.repr || pc.Size() != 3 {
			t.Fatalf("rows %d: PC is %s of size %d, want %s of size 3", tc.rows, got, pc.Size(), tc.repr)
		}
	}
	wide := diffDataset(t, diffConfig{rows: 40, attrs: 30, domain: 5}, 0x55)
	ws := lattice.FullSet(30)
	k := NewKeyer(wide, ws)
	if k.Words() != 2 {
		t.Fatalf("30 attributes of 5 values key %d words, want 2", k.Words())
	}
	okWide := &SortedCounts{W: 2, Keys: []uint64{1, 4, 1, 6, 2, 0}, Counts: []int32{2, 1, 7}}
	if pc := must(PCFromRepr(wide, PCRepr{Attrs: ws, U: okWide}, 40)); pcRepr(pc) != "wide" || pc.Size() != 3 {
		t.Fatalf("two-word layout is a %s PC of size %d, want wide of size 3", pcRepr(pc), pc.Size())
	}
	for name, tc := range map[string]struct {
		d *dataset.Dataset
		s lattice.AttrSet
		u *SortedCounts
	}{
		"outside radix":      {d, s, &SortedCounts{W: 1, Keys: []uint64{1, 5, 625}, Counts: []int32{1, 1, 1}}},
		"short counts":       {d, s, &SortedCounts{W: 1, Keys: []uint64{1, 5, 9}, Counts: []int32{1, 1}}},
		"wrong width":        {d, s, &SortedCounts{W: 2, Keys: []uint64{1, 5}, Counts: []int32{1}}},
		"wide outside radix": {wide, ws, &SortedCounts{W: 2, Keys: []uint64{1, 4, 1, k.radix[1]}, Counts: []int32{1, 1}}},
		"wide short keys":    {wide, ws, &SortedCounts{W: 2, Keys: []uint64{1, 4, 1}, Counts: []int32{1, 1}}},
		"wide as one word":   {wide, ws, &SortedCounts{W: 1, Keys: []uint64{1, 4}, Counts: []int32{1, 1}}},
	} {
		if pc, err := PCFromRepr(tc.d, PCRepr{Attrs: tc.s, U: tc.u}, 40); err == nil {
			t.Errorf("%s: intake accepted %v as a %s PC", name, tc.u, pcRepr(pc))
		}
	}
}

// TestSortedPCIteratesInKeyOrder: a sorted PC's EachCtx walks ascending
// keys, so its order no longer depends on map iteration — for two-word
// keys too, in lexicographic order.
func TestSortedPCIteratesInKeyOrder(t *testing.T) {
	for _, tc := range []struct {
		domain int
		seed   uint64
		repr   string
	}{
		{40, 0x52, "sorted"},
		{65000, 0x53, "wide"},
	} {
		d := diffDataset(t, diffConfig{rows: 3000, attrs: 4, domain: tc.domain, nullRate: 0.05}, tc.seed)
		full := lattice.FullSet(d.NumAttrs())
		pc := must(BuildPC(d, full, CountOptions{Workers: 2, minRowsPerWorker: 1}))
		if got := pcRepr(pc); got != tc.repr {
			t.Fatalf("domain %d: PC is %s, want %s", tc.domain, got, tc.repr)
		}
		var keys [][]uint64
		noErr(pc.EachCtx(nil, d.NumAttrs(), func(vals []uint16, _ int) bool {
			key, _ := pc.keyer.appendKey(nil, vals)
			keys = append(keys, key)
			return true
		}))
		if sorted := slices.IsSortedFunc(keys, slices.Compare); !sorted || len(keys) != pc.Size() {
			t.Fatalf("domain %d: EachCtx yields %d keys, sorted %v; size %d", tc.domain, len(keys), sorted, pc.Size())
		}
		if got, want := pcDump(pc), pcDump(must(BuildPC(d, full, CountOptions{Workers: 1}))); !maps.Equal(got, want) {
			t.Fatalf("domain %d: parallel %s build differs from the sequential one", tc.domain, tc.repr)
		}
	}
}
