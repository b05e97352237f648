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
	if err := s.validate(^uint64(0)); err != nil {
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
			checkSorted(t, sortedFrom(keys, counts), want)
			checkSorted(t, sortedFromMap(want), want)
		}
	}
}

// TestSortedValidate: every broken invariant a binary search or Decode
// would trip on is an error.
func TestSortedValidate(t *testing.T) {
	ok := &SortedCounts{Keys: []uint64{1, 5, 9}, Counts: []int32{2, 1, 7}}
	if err := ok.validate(10); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	for name, s := range map[string]*SortedCounts{
		"descending":     {Keys: []uint64{5, 1, 9}, Counts: []int32{1, 1, 1}},
		"repeated":       {Keys: []uint64{1, 5, 5}, Counts: []int32{1, 1, 1}},
		"outside radix":  {Keys: []uint64{1, 5, 10}, Counts: []int32{1, 1, 1}},
		"zero count":     {Keys: []uint64{1, 5, 9}, Counts: []int32{1, 0, 1}},
		"negative count": {Keys: []uint64{1, 5, 9}, Counts: []int32{1, -3, 1}},
		"short counts":   {Keys: []uint64{1, 5, 9}, Counts: []int32{1, 1}},
	} {
		if err := s.validate(10); err == nil {
			t.Errorf("%s: validate accepted %v", name, s)
		}
	}
}

// TestSortedPCIteratesInKeyOrder: a sorted PC's EachCtx walks ascending
// keys, so its order no longer depends on map iteration.
func TestSortedPCIteratesInKeyOrder(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 3000, attrs: 4, domain: 40, nullRate: 0.05}, 0x52)
	pc := must(BuildPC(d, lattice.FullSet(d.NumAttrs()), CountOptions{Workers: 2, minRowsPerWorker: 1}))
	if pc.u == nil {
		t.Fatalf("PC is %s, want sorted", pcRepr(pc))
	}
	var keys []uint64
	noErr(pc.EachCtx(nil, d.NumAttrs(), func(vals []uint16, _ int) bool {
		key, _ := pc.keyer.KeyVals(vals)
		keys = append(keys, key)
		return true
	}))
	if !slices.IsSorted(keys) || len(keys) != pc.Size() {
		t.Fatalf("EachCtx yields %d keys, sorted %v; size %d", len(keys), slices.IsSorted(keys), pc.Size())
	}
	want := pcDump(must(BuildPC(d, lattice.FullSet(d.NumAttrs()), CountOptions{Workers: 1})))
	if got := pcDump(pc); !maps.Equal(got, want) {
		t.Fatal("parallel sorted build differs from the sequential one")
	}
}
