package core

import (
	"fmt"
	"sort"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// PatternSet is the workload a label is scored against: patterns with their
// true counts. The paper's experiments use P = P_A, the set of every
// distinct full-width tuple in the data (§IV-A); the problem definition also
// admits arbitrary sets (e.g. patterns over sensitive attributes only), which
// FromPatterns supports.
//
// Rows are stored densely (stride = number of dataset attributes) for cache
// friendliness during evaluation.
type PatternSet struct {
	stride int
	flat   []uint16
	counts []int
	attrs  []lattice.AttrSet
	sorted bool // true when counts are non-increasing
}

// DistinctTuples returns P_A over dataset d: one entry per distinct
// NULL-free tuple, with its multiplicity as the count. Tuples containing
// NULL constrain no full-width pattern and are skipped.
func DistinctTuples(d *dataset.Dataset) *PatternSet {
	n := d.NumAttrs()
	all := lattice.FullSet(n)
	k := NewKeyer(d, all)
	cols := datasetCols(d)
	ps := &PatternSet{stride: n}
	if k.Words() == 1 {
		idx := make(map[uint64]int)
		for r := 0; r < d.NumRows(); r++ {
			key, ok := k.KeyRow(cols, r)
			if !ok {
				continue
			}
			if at, dup := idx[key]; dup {
				ps.counts[at]++
				continue
			}
			idx[key] = len(ps.counts)
			ps.counts = append(ps.counts, 1)
			ps.attrs = append(ps.attrs, all)
			base := len(ps.flat)
			ps.flat = append(ps.flat, make([]uint16, n)...)
			for a := 0; a < n; a++ {
				ps.flat[base+a] = cols[a][r]
			}
		}
		return ps
	}
	idx := make(map[string]int)
	var buf []byte
	for r := 0; r < d.NumRows(); r++ {
		b, ok := k.appendRecordRow(buf[:0], cols, r)
		buf = b
		if !ok {
			continue
		}
		if at, dup := idx[string(b)]; dup {
			ps.counts[at]++
			continue
		}
		idx[string(b)] = len(ps.counts)
		ps.counts = append(ps.counts, 1)
		ps.attrs = append(ps.attrs, all)
		base := len(ps.flat)
		ps.flat = append(ps.flat, make([]uint16, n)...)
		for a := 0; a < n; a++ {
			ps.flat[base+a] = cols[a][r]
		}
	}
	return ps
}

// FromPatterns builds a workload from explicit patterns, computing each
// pattern's true count with a scan over d. The NP-hardness reduction
// (Appendix A) supplies its pattern set this way.
func FromPatterns(d *dataset.Dataset, patterns []Pattern) (*PatternSet, error) {
	n := d.NumAttrs()
	ps := &PatternSet{stride: n}
	for _, p := range patterns {
		if len(p.vals) != n {
			return nil, fmt.Errorf("core: pattern has %d value slots, dataset has %d attributes", len(p.vals), n)
		}
		ps.flat = append(ps.flat, p.vals...)
		ps.attrs = append(ps.attrs, p.attrs)
		ps.counts = append(ps.counts, CountPattern(d, p))
	}
	return ps, nil
}

// Len returns the number of patterns.
func (ps *PatternSet) Len() int { return len(ps.counts) }

// Stride returns the number of dense value slots per pattern.
func (ps *PatternSet) Stride() int { return ps.stride }

// Row returns the dense value slice of pattern i. The slice aliases internal
// storage and must not be modified.
func (ps *PatternSet) Row(i int) []uint16 { return ps.flat[i*ps.stride : (i+1)*ps.stride] }

// Attrs returns Attr(p) of pattern i.
func (ps *PatternSet) Attrs(i int) lattice.AttrSet { return ps.attrs[i] }

// Count returns the true count c_D(p) of pattern i.
func (ps *PatternSet) Count(i int) int { return ps.counts[i] }

// Pattern materializes pattern i as a Pattern value.
func (ps *PatternSet) Pattern(i int) Pattern {
	p, _ := PatternFromIDs(ps.attrs[i], ps.Row(i))
	return p
}

// TotalCount returns the sum of all pattern counts (|D| when the set is P_A
// over a NULL-free dataset).
func (ps *PatternSet) TotalCount() int {
	t := 0
	for _, c := range ps.counts {
		t += c
	}
	return t
}

// SortByCountDesc reorders patterns by non-increasing true count, enabling
// the paper's early-termination optimization during max-error evaluation
// (§IV-C). Sorting is idempotent and done once.
func (ps *PatternSet) SortByCountDesc() {
	if ps.sorted {
		return
	}
	order := make([]int, ps.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ps.counts[order[a]] > ps.counts[order[b]] })
	flat := make([]uint16, len(ps.flat))
	counts := make([]int, len(ps.counts))
	attrs := make([]lattice.AttrSet, len(ps.attrs))
	for to, from := range order {
		copy(flat[to*ps.stride:(to+1)*ps.stride], ps.Row(from))
		counts[to] = ps.counts[from]
		attrs[to] = ps.attrs[from]
	}
	ps.flat, ps.counts, ps.attrs = flat, counts, attrs
	ps.sorted = true
}

// Sorted reports whether the set is ordered by non-increasing count.
func (ps *PatternSet) Sorted() bool { return ps.sorted }
