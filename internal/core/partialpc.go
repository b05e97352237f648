package core

import (
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// PartialPC is the partial-pattern variant of a label's PC section — one of
// the extensions the paper defers to future work (§II-C: "use partial
// patterns"). Instead of grouping only tuples that are fully non-NULL on S,
// it groups every tuple by its NULL-dropped restriction to S: a tuple that
// is NULL in part of S still contributes the partial pattern over the
// attributes it does have. This is exactly the accounting the NP-hardness
// reduction's Lemma A.8 assumes (see PartialLabelSize), and it buys a real
// capability: the count of ANY pattern over any subset of S can be
// recovered exactly from the stored groups, NULLs included — the plain PC
// can only do that for NULL-free data.
type PartialPC struct {
	attrs   lattice.AttrSet
	stride  int
	entries []partialEntry
}

// partialEntry is one stored group: the set of attributes the group's
// tuples have (within S), their shared values, and the tuple count.
type partialEntry struct {
	attrs lattice.AttrSet
	vals  []uint16
	count int
}

// BuildPartialPC groups dataset d by NULL-dropped restriction to s.
func BuildPartialPC(d *dataset.Dataset, s lattice.AttrSet) *PartialPC {
	members := s.Members()
	n := d.NumAttrs()
	ppc := &PartialPC{attrs: s, stride: n}
	cols := make([][]uint16, len(members))
	for j, i := range members {
		cols[j] = d.Col(i)
	}
	idx := make(map[string]int)
	var buf []byte
	for r := 0; r < d.NumRows(); r++ {
		buf = buf[:0]
		for j := range members {
			id := cols[j][r]
			buf = append(buf, byte(id), byte(id>>8))
		}
		if at, ok := idx[string(buf)]; ok {
			ppc.entries[at].count++
			continue
		}
		e := partialEntry{vals: make([]uint16, n)}
		for j, i := range members {
			id := cols[j][r]
			if id != dataset.Null {
				e.attrs = e.attrs.Add(i)
				e.vals[i] = id
			}
		}
		e.count = 1
		idx[string(buf)] = len(ppc.entries)
		ppc.entries = append(ppc.entries, e)
	}
	return ppc
}

// Attrs returns S.
func (ppc *PartialPC) Attrs() lattice.AttrSet { return ppc.attrs }

// Size returns the label-size accounting of Lemma A.8: the number of stored
// groups constraining at least two attributes (smaller groups duplicate VC
// information). It equals PartialLabelSize on the same dataset and set.
func (ppc *PartialPC) Size() int {
	n := 0
	for _, e := range ppc.entries {
		if e.attrs.Size() >= 2 {
			n++
		}
	}
	return n
}

// NumGroups returns the total number of stored groups, including single-
// attribute and all-NULL groups.
func (ppc *PartialPC) NumGroups() int { return len(ppc.entries) }

// Lookup returns the exact count c_D(r) of the pattern whose constrained
// attributes are rattrs ⊆ S with values in vals: the sum over stored groups
// that constrain at least rattrs and agree on its values. For the empty
// pattern it returns the total tuple count.
func (ppc *PartialPC) Lookup(vals []uint16, rattrs lattice.AttrSet) int {
	total := 0
	members := rattrs.Members()
outer:
	for _, e := range ppc.entries {
		if !rattrs.SubsetOf(e.attrs) {
			continue
		}
		for _, a := range members {
			if e.vals[a] != vals[a] {
				continue outer
			}
		}
		total += e.count
	}
	return total
}

// PartialLabel is a label whose PC section stores partial patterns. It
// implements Estimator with the same formula as Label (Definition 2.11) but
// serves the base count c_D(p|S∩Attr(p)) exactly for NULL-bearing data.
type PartialLabel struct {
	d     *dataset.Dataset
	attrs lattice.AttrSet
	ppc   *PartialPC
	fracs [][]float64 // d's shared, read-only VC fractions (Dataset.VCTable)
}

// BuildPartialLabel computes the partial-pattern label of d over s.
func BuildPartialLabel(d *dataset.Dataset, s lattice.AttrSet) *PartialLabel {
	_, fracs := d.VCTable()
	return &PartialLabel{
		d:     d,
		attrs: s,
		ppc:   BuildPartialPC(d, s),
		fracs: fracs,
	}
}

// Attrs returns S.
func (l *PartialLabel) Attrs() lattice.AttrSet { return l.attrs }

// Size returns the Lemma A.8 PC size.
func (l *PartialLabel) Size() int { return l.ppc.Size() }

// PartialPC returns the underlying group index.
func (l *PartialLabel) PartialPC() *PartialPC { return l.ppc }

// EstimateRow implements Estimator.
func (l *PartialLabel) EstimateRow(vals []uint16, attrs lattice.AttrSet) float64 {
	inter := attrs.Intersect(l.attrs)
	base := float64(l.ppc.Lookup(vals, inter))
	if base == 0 {
		return 0
	}
	return Independence(base, vals, attrs.Diff(l.attrs), l.fracs)
}

// Estimate estimates the count of an explicit pattern.
func (l *PartialLabel) Estimate(p Pattern) float64 {
	return l.EstimateRow(p.vals, p.attrs)
}

var _ Estimator = (*PartialLabel)(nil)
