package core

import (
	"fmt"
	"math"
	"slices"
)

// SortedCounts is the frozen layout of non-dense uint64 pattern counts:
// strictly ascending mixed-radix keys with a parallel slice of positive
// counts, 12 bytes an entry. A lookup is a binary search and iteration
// walks keys in order. It backs every PC whose uint64 key space is too
// sparse for a dense slab and every cached run of a merge-on-read uint64
// index; hash maps appear only as build-time accumulators.
//
// Counts are int32, like the dense slab's: a count is at most the row
// count, BuildPC and Label.Merge refuse more than math.MaxInt32 rows, and
// artifact.Open refuses a payload whose counts sum past its label's rows,
// so count32's overflow panic marks a bug, never an input.
type SortedCounts struct {
	Keys   []uint64
	Counts []int32
}

// lookup returns the count stored under key, 0 when absent.
func (s *SortedCounts) lookup(key uint64) int {
	if i, ok := slices.BinarySearch(s.Keys, key); ok {
		return int(s.Counts[i])
	}
	return 0
}

// validate checks the invariants a lookup relies on, for a layout read
// from outside the engine: equal lengths, keys strictly ascending and
// inside the key space [0, radix), every count positive.
func (s *SortedCounts) validate(radix uint64) error {
	if len(s.Keys) != len(s.Counts) {
		return fmt.Errorf("core: sorted PC has %d keys but %d counts", len(s.Keys), len(s.Counts))
	}
	for i, key := range s.Keys {
		if i > 0 && key <= s.Keys[i-1] {
			return fmt.Errorf("core: sorted PC key %d at entry %d does not ascend from %d", key, i, s.Keys[i-1])
		}
		if key >= radix {
			return fmt.Errorf("core: sorted PC key %d at entry %d outside the key space [0, %d)", key, i, radix)
		}
		if s.Counts[i] <= 0 {
			return fmt.Errorf("core: sorted PC count %d at entry %d is not positive", s.Counts[i], i)
		}
	}
	return nil
}

// count32 narrows a pattern count to the int32 the dense and sorted
// layouts store.
func count32(c int) int32 {
	if c > math.MaxInt32 {
		panic(fmt.Sprintf("core: pattern count %d overflows int32", c))
	}
	return int32(c)
}

// sortedFromMap freezes a build-time hash-map accumulator.
func sortedFromMap(m map[uint64]int) *SortedCounts {
	keys := make([]uint64, 0, len(m))
	counts := make([]int32, 0, len(m))
	for key, c := range m {
		keys = append(keys, key)
		counts = append(counts, count32(c))
	}
	return sortedFrom(keys, counts)
}

// sortedFrom is the sort-and-compress constructor: it radix-sorts the
// (key, count) entries by key, sums the counts of equal keys, and returns
// the layout in exact-size slices. It takes ownership of both slices.
func sortedFrom(keys []uint64, counts []int32) *SortedCounts {
	keys, counts = radixSort(keys, counts)
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
		return &SortedCounts{Keys: keys, Counts: counts}
	}
	out := &SortedCounts{Keys: make([]uint64, n), Counts: make([]int32, n)}
	copy(out.Keys, keys)
	copy(out.Counts, counts)
	return out
}

// radixSort sorts keys ascending, moving counts alongside: a least
// significant digit radix sort on bytes that skips every byte all keys
// share, so a key space of b bits costs at most ⌈b/8⌉ passes. It returns
// the sorted slices, which are either the inputs or scratch of the same
// length. It earns its lines over the standard library: on a 2-vCPU Intel
// Xeon it sorts 200,000 entries of 23-bit keys in 6.6 ms, where sort.Sort
// over the two slices takes 44 ms and slices.SortFunc over packed pairs
// 36 ms, and a reopened 200,000 × 4 × domain-200 label builds its four
// three-attribute marginals in ~70 ms against ~220 ms with sort.Sort.
func radixSort(keys []uint64, counts []int32) ([]uint64, []int32) {
	if len(keys) < 2 {
		return keys, counts
	}
	var hist [8][256]int
	for _, key := range keys {
		for b := range hist {
			hist[b][byte(key>>(8*b))]++
		}
	}
	var tk []uint64
	var tc []int32
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
	return keys, counts
}
