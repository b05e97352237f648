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
// artifact.Open refuses a payload whose counts sum past its label's rows,
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
func recordEntries(w int, ts ...*spill.Tally) ([]uint64, []int32) {
	n := 0
	for _, t := range ts {
		n += t.Len()
	}
	keys := make([]uint64, 0, w*n)
	counts := make([]int32, 0, n)
	for _, t := range ts {
		for rec, c := range t.All() {
			keys = appendWords(keys, rec)
			counts = append(counts, count32(c))
		}
	}
	return keys, counts
}

// sortedFrom is the sort-and-compress constructor: it sorts the (key,
// count) entries of w-word keys, sums the counts of equal keys, and
// returns the layout in exact-size slices. It takes ownership of both
// slices.
func sortedFrom(keys []uint64, counts []int32, w int) *SortedCounts {
	if w > 1 {
		return sortedFromWide(keys, counts, w)
	}
	keys, counts, _, _ = radixSort(keys, counts, nil, nil)
	n := 0
	for i, key := range keys {
		if n > 0 && keys[n-1] == key {
			counts[n-1] = count32(int(counts[n-1]) + int(counts[i]))
			continue
		}
		keys[n], counts[n] = key, counts[i]
		n++
	}
	if n == cap(keys) && n == cap(counts) {
		return &SortedCounts{W: 1, Keys: keys, Counts: counts}
	}
	out := &SortedCounts{W: 1, Keys: make([]uint64, n), Counts: make([]int32, n)}
	copy(out.Keys, keys)
	copy(out.Counts, counts)
	return out
}

// keyOrder returns the permutation that lists n keys of w words in
// ascending order: radixSort one word at a time, least significant word
// first, carrying the permutation in the count slot. Each pass is stable,
// so the last leaves the keys in lexicographic order.
func keyOrder(keys []uint64, n, w int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	word := make([]uint64, n)
	var tk []uint64
	var tc []int32
	for j := w - 1; j >= 0; j-- {
		for i, p := range perm {
			word[i] = keys[int(p)*w+j]
		}
		word, perm, tk, tc = radixSort(word, perm, tk, tc)
	}
	return perm
}

// sortedFromWide is sortedFrom for keys of w > 1 words.
func sortedFromWide(keys []uint64, counts []int32, w int) *SortedCounts {
	perm := keyOrder(keys, len(counts), w)
	distinct := 0
	for i, p := range perm {
		if i == 0 || !slices.Equal(keys[int(p)*w:][:w], keys[int(perm[i-1])*w:][:w]) {
			distinct++
		}
	}
	out := &SortedCounts{W: w, Keys: make([]uint64, 0, w*distinct), Counts: make([]int32, 0, distinct)}
	for i, p := range perm {
		key := keys[int(p)*w:][:w]
		if i > 0 && slices.Equal(key, keys[int(perm[i-1])*w:][:w]) {
			last := len(out.Counts) - 1
			out.Counts[last] = count32(int(out.Counts[last]) + int(counts[p]))
			continue
		}
		out.Keys = append(out.Keys, key...)
		out.Counts = append(out.Counts, counts[p])
	}
	return out
}

// radixSort sorts keys ascending, moving counts alongside: a least
// significant digit radix sort on bytes that skips every byte all keys
// share, so a key space of b bits costs at most ⌈b/8⌉ passes. tk and tc
// are scratch of keys' length to sort through, allocated when nil. It
// returns the sorted slices and the scratch for a next sort of the same
// length; each pair is the inputs or the scratch. It earns its lines over
// the standard library: on a 2-vCPU Intel
// Xeon it sorts 200,000 entries of 23-bit keys in 6.6 ms, where sort.Sort
// over the two slices takes 44 ms and slices.SortFunc over packed pairs
// 36 ms, and a reopened 200,000 × 4 × domain-200 label builds its four
// three-attribute marginals in ~70 ms against ~220 ms with sort.Sort.
func radixSort(keys []uint64, counts []int32, tk []uint64, tc []int32) ([]uint64, []int32, []uint64, []int32) {
	if len(keys) < 2 {
		return keys, counts, tk, tc
	}
	var hist [8][256]int
	for _, key := range keys {
		for b := range hist {
			hist[b][byte(key>>(8*b))]++
		}
	}
	for b := range hist {
		h := &hist[b]
		if h[byte(keys[0]>>(8*b))] == len(keys) {
			continue
		}
		if tk == nil {
			tk, tc = make([]uint64, len(keys)), make([]int32, len(keys))
		}
		sum := 0
		for d, c := range h {
			h[d] = sum
			sum += c
		}
		for i, key := range keys {
			d := byte(key >> (8 * b))
			tk[h[d]], tc[h[d]] = key, counts[i]
			h[d]++
		}
		keys, tk = tk, keys
		counts, tc = tc, counts
	}
	return keys, counts, tk, tc
}
