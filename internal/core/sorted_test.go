package core

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

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
	if err := s.validate([]uint64{^uint64(0)}); err != nil {
		t.Fatal(err)
	}
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
			radix := slices.Repeat([]uint64{^uint64(0)}, w)
			if err := s.validate(radix); err != nil {
				t.Fatalf("w=%d n=%d: %v", w, n, err)
			}
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

// TestSortedValidate: every broken invariant a binary search or Decode
// would trip on is an error.
func TestSortedValidate(t *testing.T) {
	ok := &SortedCounts{W: 1, Keys: []uint64{1, 5, 9}, Counts: []int32{2, 1, 7}}
	if err := ok.validate([]uint64{10}); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	okWide := &SortedCounts{W: 2, Keys: []uint64{1, 4, 1, 6, 2, 0}, Counts: []int32{2, 1, 7}}
	if err := okWide.validate([]uint64{3, 7}); err != nil {
		t.Fatalf("valid two-word layout rejected: %v", err)
	}
	for name, s := range map[string]*SortedCounts{
		"descending":         {W: 1, Keys: []uint64{5, 1, 9}, Counts: []int32{1, 1, 1}},
		"repeated":           {W: 1, Keys: []uint64{1, 5, 5}, Counts: []int32{1, 1, 1}},
		"outside radix":      {W: 1, Keys: []uint64{1, 5, 10}, Counts: []int32{1, 1, 1}},
		"zero count":         {W: 1, Keys: []uint64{1, 5, 9}, Counts: []int32{1, 0, 1}},
		"negative count":     {W: 1, Keys: []uint64{1, 5, 9}, Counts: []int32{1, -3, 1}},
		"short counts":       {W: 1, Keys: []uint64{1, 5, 9}, Counts: []int32{1, 1}},
		"wrong width":        {W: 2, Keys: []uint64{1, 5}, Counts: []int32{1}},
		"wide descending":    {W: 2, Keys: []uint64{1, 4, 1, 3}, Counts: []int32{1, 1}},
		"wide outside radix": {W: 2, Keys: []uint64{1, 4, 1, 12}, Counts: []int32{1, 1}},
		"wide short keys":    {W: 2, Keys: []uint64{1, 4, 1}, Counts: []int32{1, 1}},
	} {
		radix := []uint64{10}
		if name != "wrong width" && s.W == 2 {
			radix = []uint64{3, 7}
		}
		if err := s.validate(radix); err == nil {
			t.Errorf("%s: validate accepted %v", name, s)
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
