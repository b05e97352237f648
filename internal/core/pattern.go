package core

import (
	"fmt"
	"sort"
	"strings"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// Pattern is a set of attribute = value assignments over a dataset's
// attributes (Definition 2.1). It is stored densely: vals has one slot per
// dataset attribute, holding the assigned value identifier for members of
// Attrs and dataset.Null elsewhere. A Pattern is bound to the dictionary
// encoding of the dataset it was created against.
type Pattern struct {
	attrs lattice.AttrSet
	vals  []uint16
}

// NewPattern builds a pattern from attribute-name → value-string
// assignments. Values must belong to the attribute's active domain: a
// pattern over a value that never occurs has count 0 by construction and the
// paper's pattern sets P_S only contain patterns with positive count. Only
// attributes in the first lattice.MaxAttrs columns can be constrained; a
// later column is reported as an error.
func NewPattern(d *dataset.Dataset, assign map[string]string) (Pattern, error) {
	p := Pattern{vals: make([]uint16, d.NumAttrs())}
	// Sort names for deterministic error reporting.
	names := make([]string, 0, len(assign))
	for n := range assign {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		i, ok := d.AttrIndex(name)
		if !ok {
			return Pattern{}, fmt.Errorf("core: unknown attribute %q", name)
		}
		if i >= lattice.MaxAttrs {
			return Pattern{}, fmt.Errorf("core: attribute %q is column %d; a pattern constrains only the first %d columns", name, i, lattice.MaxAttrs)
		}
		id, ok := d.Attr(i).ID(assign[name])
		if !ok {
			return Pattern{}, fmt.Errorf("core: value %q not in active domain of %q", assign[name], name)
		}
		p.attrs = p.attrs.Add(i)
		p.vals[i] = id
	}
	return p, nil
}

// PatternFromIDs builds a pattern from a dense identifier slice. Slots of
// attrs must hold non-null identifiers; other slots are ignored. The slice
// is copied.
func PatternFromIDs(attrs lattice.AttrSet, vals []uint16) (Pattern, error) {
	p := Pattern{attrs: attrs, vals: make([]uint16, len(vals))}
	for _, i := range attrs.Members() {
		if i >= len(vals) {
			return Pattern{}, fmt.Errorf("core: attribute %d beyond %d value slots", i, len(vals))
		}
		if vals[i] == dataset.Null {
			return Pattern{}, fmt.Errorf("core: attribute %d assigned the NULL identifier", i)
		}
		p.vals[i] = vals[i]
	}
	return p, nil
}

// PatternFromRow builds the pattern asserting row r's values on the given
// attributes. Attributes where the row is NULL are dropped from the pattern.
func PatternFromRow(d *dataset.Dataset, r int, attrs lattice.AttrSet) Pattern {
	p := Pattern{vals: make([]uint16, d.NumAttrs())}
	for _, i := range attrs.Members() {
		id := d.ID(r, i)
		if id == dataset.Null {
			continue
		}
		p.attrs = p.attrs.Add(i)
		p.vals[i] = id
	}
	return p
}

// Attrs returns Attr(p): the set of attributes the pattern constrains.
func (p Pattern) Attrs() lattice.AttrSet { return p.attrs }

// Size returns |Attr(p)|.
func (p Pattern) Size() int { return p.attrs.Size() }

// ValueID returns the value identifier assigned to attribute i, or
// dataset.Null when i is not constrained.
func (p Pattern) ValueID(i int) uint16 {
	if !p.attrs.Has(i) || i >= len(p.vals) {
		return dataset.Null
	}
	return p.vals[i]
}

// Values returns a copy of the dense value-identifier slice.
func (p Pattern) Values() []uint16 { return append([]uint16(nil), p.vals...) }

// Restrict returns p|S: the pattern restricted to the attributes in s
// (paper notation p|S1). Attributes of s not constrained by p are simply
// absent from the result.
func (p Pattern) Restrict(s lattice.AttrSet) Pattern {
	q := Pattern{attrs: p.attrs.Intersect(s), vals: make([]uint16, len(p.vals))}
	for _, i := range q.attrs.Members() {
		q.vals[i] = p.vals[i]
	}
	return q
}

// Matches reports whether tuple r of d satisfies the pattern
// (Definition 2.3). NULL values never satisfy an assignment.
func (p Pattern) Matches(d *dataset.Dataset, r int) bool {
	for _, i := range p.attrs.Members() {
		if d.ID(r, i) != p.vals[i] {
			return false
		}
	}
	return true
}

// Format renders the pattern with attribute and value names, e.g.
// "{age group = under 20, marital status = single}".
func (p Pattern) Format(d *dataset.Dataset) string {
	var b strings.Builder
	b.WriteString("{")
	for k, i := range p.attrs.Members() {
		if k > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = %s", d.Attr(i).Name(), d.Attr(i).Value(p.vals[i]))
	}
	b.WriteString("}")
	return b.String()
}

// Equal reports whether two patterns constrain the same attributes to the
// same values.
func (p Pattern) Equal(q Pattern) bool {
	if p.attrs != q.attrs {
		return false
	}
	for _, i := range p.attrs.Members() {
		if p.vals[i] != q.vals[i] {
			return false
		}
	}
	return true
}

// CountPattern computes c_D(p) — the number of tuples satisfying p — by a
// full scan (Definition 2.3). For repeated counting over the same attribute
// set, build a PC index instead.
func CountPattern(d *dataset.Dataset, p Pattern) int {
	members := p.attrs.Members()
	if len(members) == 0 {
		return d.NumRows()
	}
	// Column-oriented scan: intersect progressively.
	n := 0
	cols := make([][]uint16, len(members))
	want := make([]uint16, len(members))
	for k, i := range members {
		cols[k] = d.Col(i)
		want[k] = p.vals[i]
	}
outer:
	for r := 0; r < d.NumRows(); r++ {
		for k := range cols {
			if cols[k][r] != want[k] {
				continue outer
			}
		}
		n++
	}
	return n
}
