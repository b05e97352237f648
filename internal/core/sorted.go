package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"pcbl/internal/spill"
)

// SortedCounts is the frozen layout of non-dense pattern counts: keys of W
// uint64 words (Keyer), strictly ascending in lexicographic order, with a
// parallel slice of positive counts, 8W + 4 bytes an entry. A lookup is a
// binary search and iteration walks keys in order. It backs every PC whose
// key space is too sparse for a dense slab and every cached run of a
// merge-on-read index; hash maps appear only as build-time accumulators.
//
// Counts are int32, like the dense slab's: a count is at most the row
// count, BuildPC and Label.Merge refuse more than math.MaxInt32 rows, and
// artifact.OpenFS refuses a payload whose counts sum past its label's rows,
// so count32's overflow panic marks a bug, never an input.
type SortedCounts struct {
	W      int      // key width in words
	Keys   []uint64 // W words an entry
	Counts []int32
}

// entry returns the key of entry i.
func (s *SortedCounts) entry(i int) []uint64 { return s.Keys[i*s.W : (i+1)*s.W] }

// lookup returns the count stored under a one-word key, 0 when absent.
func (s *SortedCounts) lookup(key uint64) int {
	if i, ok := slices.BinarySearch(s.Keys, key); ok {
		return int(s.Counts[i])
	}
	return 0
}

// lookupKey returns the count stored under a key of W words, 0 when
// absent: a binary search over W-word windows.
func (s *SortedCounts) lookupKey(key []uint64) int {
	if s.W == 1 {
		return s.lookup(key[0])
	}
	if i, ok := sort.Find(len(s.Counts), func(i int) int { return slices.Compare(key, s.entry(i)) }); ok {
		return int(s.Counts[i])
	}
	return 0
}

// count32 narrows a pattern count to the int32 the dense and sorted
// layouts store.
func count32(c int) int32 {
	if c > math.MaxInt32 {
		panic(fmt.Sprintf("core: pattern count %d overflows int32", c))
	}
	return int32(c)
}

// mapEntries lists a one-word hash-map accumulator's entries, unsorted.
func mapEntries(m map[uint64]int) ([]uint64, []int32) {
	keys := make([]uint64, 0, len(m))
	counts := make([]int32, 0, len(m))
	for key, c := range m {
		keys = append(keys, key)
		counts = append(counts, count32(c))
	}
	return keys, counts
}

// sortedFromMap freezes a one-word hash-map accumulator.
func sortedFromMap(m map[uint64]int) *SortedCounts {
	keys, counts := mapEntries(m)
	return sortedFrom(keys, counts, 1)
}

// recordEntries lists the entries of tallies of keys in record form
// (appendRecord), unsorted, as W-word keys: a key once per tally that
// counted it.
func recordEntries(w int, ts ...*tally) ([]uint64, []int32) {
	n := 0
	for _, t := range ts {
		n += len(t.counts)
	}
	keys := make([]uint64, 0, w*n)
	counts := make([]int32, 0, n)
	for _, t := range ts {
		for rec, i := range t.index {
			keys = appendWords(keys, rec)
			counts = append(counts, t.counts[i])
		}
	}
	return keys, counts
}

// sortedFrom is the sort-and-compress constructor: it sorts the (key,
// count) entries of w-word keys, sums the counts of equal keys
// (spill.Sorter), and returns the layout in exact-size slices. It takes
// ownership of both slices.
func sortedFrom(keys []uint64, counts []int32, w int) *SortedCounts {
	var s spill.Sorter
	keys, counts = s.Sum(keys, counts, w)
	if n := len(counts); n == cap(counts) && n*w == cap(keys) {
		return &SortedCounts{W: w, Keys: keys, Counts: counts}
	}
	out := &SortedCounts{W: w, Keys: make([]uint64, len(keys)), Counts: make([]int32, len(counts))}
	copy(out.Keys, keys)
	copy(out.Counts, counts)
	return out
}
