// Package dataset implements the relational substrate the PCBL label model
// is defined over: an in-memory, column-oriented table of categorical
// attributes with dictionary-encoded values, optional NULLs, CSV input and
// output, and bucketization of numeric attributes into categorical ranges
// (paper §II: "Where attribute values are drawn from a continuous domain, we
// render them categorical by bucketizing them into ranges").
//
// Values of an attribute are dictionary-encoded as dense uint16 identifiers.
// Identifier 0 is reserved for NULL (a missing value); the active domain
// Dom(A) of an attribute consists of identifiers 1..DomainSize(A). NULLs
// never satisfy an equality pattern and are excluded from value counts,
// which matches the semantics required by the paper's NP-hardness reduction
// (Appendix A) where reduction tuples deliberately leave attributes unset.
//
// Ingest works on bytes and identifiers, not on a string per cell. ReadCSV
// and ReadCSVAppend read encoding/csv's format with one streaming scanner:
// a read holds a bounded number of fixed-size blocks (GOMAXPROCS of them),
// cuts each buffer's whole rows into spans by quote parity, parses the spans
// on up to GOMAXPROCS goroutines and merges them in input order, so the
// result is the one a row-by-row reader gives. A field is looked up by its
// bytes; only a value its column has never seen becomes a string. Rows
// passed over by SkipRows are scanned and validated, never looked up or
// interned. WriteCSV writes each dictionary value's encoding once, and
// Bucketize maps value identifiers to bucket identifiers through one table
// per attribute.
package dataset

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Null is the reserved value identifier for a missing value.
const Null uint16 = 0

// MaxDomainSize is the largest number of distinct non-null values a single
// attribute may carry. Identifiers are uint16 with 0 reserved for NULL.
const MaxDomainSize = 1<<16 - 2

// Attribute describes a single categorical column: its name and the
// dictionary mapping between external string values and dense identifiers.
type Attribute struct {
	name string
	dom  []string          // dom[i] is the string for identifier i+1
	ids  map[string]uint16 // inverse of dom past base's values; never contains NULL
	// base, when set, is the built attribute whose domain dom extends: its
	// values keep their identifiers and are looked up in its map, read-only,
	// so extending a dictionary copies none of it. A base has no base.
	base *Attribute
}

// NewAttribute returns an attribute with the given name and an empty domain.
func NewAttribute(name string) *Attribute {
	return &Attribute{name: name, ids: make(map[string]uint16)}
}

// Name returns the attribute name.
func (a *Attribute) Name() string { return a.name }

// DomainSize returns the number of distinct non-null values observed.
func (a *Attribute) DomainSize() int { return len(a.dom) }

// Domain returns the attribute's active domain as strings, in insertion
// order (identifier order). The returned slice is a copy.
func (a *Attribute) Domain() []string {
	out := make([]string, len(a.dom))
	copy(out, a.dom)
	return out
}

// Value returns the string for a value identifier. It returns "" for Null.
func (a *Attribute) Value(id uint16) string {
	if id == Null {
		return ""
	}
	return a.dom[id-1]
}

// ID returns the identifier for a string value, or (Null, false) when the
// value is not part of the active domain.
func (a *Attribute) ID(value string) (uint16, bool) {
	if a.base != nil {
		if id, ok := a.base.ids[value]; ok {
			return id, true
		}
	}
	id, ok := a.ids[value]
	return id, ok
}

// idOf is ID for a value held as bytes; it does not allocate.
func (a *Attribute) idOf(value []byte) (uint16, bool) {
	if a.base != nil {
		if id, ok := a.base.ids[string(value)]; ok {
			return id, true
		}
	}
	id, ok := a.ids[string(value)]
	return id, ok
}

// intern returns the identifier for value, extending the dictionary if the
// value has not been seen before.
func (a *Attribute) intern(value string) (uint16, error) {
	if id, ok := a.ID(value); ok {
		return id, nil
	}
	if len(a.dom) >= MaxDomainSize {
		return Null, a.errFull()
	}
	a.dom = append(a.dom, value)
	id := uint16(len(a.dom))
	a.ids[value] = id
	return id, nil
}

// errFull is the failure of a value that would take the attribute past
// MaxDomainSize.
func (a *Attribute) errFull() error {
	return fmt.Errorf("dataset: attribute %q exceeds %d distinct values", a.name, MaxDomainSize)
}

// extension returns an empty extension of the attribute's dictionary: its
// values keep their identifiers, and new values take the identifiers past
// them. The attribute is read, never copied, unless it is an extension
// itself; that one is flattened first, so a lookup reads at most two maps.
func (a *Attribute) extension() *Attribute {
	if a.base != nil {
		flat := &Attribute{name: a.name, dom: a.dom, ids: make(map[string]uint16, len(a.dom))}
		for i, v := range a.dom {
			flat.ids[v] = uint16(i + 1)
		}
		a = flat
	}
	return &Attribute{name: a.name, dom: a.dom[:len(a.dom):len(a.dom)], ids: make(map[string]uint16), base: a}
}

// Dataset is an immutable-after-build, column-oriented categorical relation.
// Use a Builder to construct one, or ReadCSV to load one from CSV text.
//
// A Dataset also holds its VC table (VCTable): every attribute's value
// counts and independence fractions, counted on first use and shared by
// every label built over the dataset. Immutability is what makes caching
// the table sound: no row changes after Build, and Head, Slice and Project
// return new Datasets, each with a table of its own.
type Dataset struct {
	name  string
	attrs []*Attribute
	cols  [][]uint16 // cols[a][row] is the value identifier
	rows  int

	vcOnce   sync.Once
	vcCounts [][]int     // vcCounts[a][id-1] = c_D({A=v}); set by vcOnce
	vcFracs  [][]float64 // vcFracs[a] = FractionsOf(vcCounts[a]); set by vcOnce
}

// Name returns the dataset's display name (may be empty).
func (d *Dataset) Name() string { return d.name }

// NumRows returns the number of tuples.
func (d *Dataset) NumRows() int { return d.rows }

// NumAttrs returns the number of attributes.
func (d *Dataset) NumAttrs() int { return len(d.attrs) }

// Attr returns the i-th attribute descriptor.
func (d *Dataset) Attr(i int) *Attribute { return d.attrs[i] }

// AttrNames returns the attribute names in column order.
func (d *Dataset) AttrNames() []string {
	out := make([]string, len(d.attrs))
	for i, a := range d.attrs {
		out[i] = a.name
	}
	return out
}

// AttrIndex returns the index of the attribute with the given name, or
// (-1, false) when absent.
func (d *Dataset) AttrIndex(name string) (int, bool) {
	for i, a := range d.attrs {
		if a.name == name {
			return i, true
		}
	}
	return -1, false
}

// Col returns the raw identifier column for attribute i. The returned slice
// must not be modified; it aliases the dataset's storage.
func (d *Dataset) Col(i int) []uint16 { return d.cols[i] }

// ID returns the value identifier at (row, attr).
func (d *Dataset) ID(row, attr int) uint16 { return d.cols[attr][row] }

// Value returns the string value at (row, attr); "" for NULL.
func (d *Dataset) Value(row, attr int) string {
	return d.attrs[attr].Value(d.cols[attr][row])
}

// Row returns the identifiers of a full tuple as a new slice.
func (d *Dataset) Row(row int) []uint16 {
	out := make([]uint16, len(d.attrs))
	for a := range d.attrs {
		out[a] = d.cols[a][row]
	}
	return out
}

// ValueCounts returns, for attribute a, the tuple count of each domain value;
// index i holds the count of identifier i+1. This is the VC entry c_D({A=v}).
// The slice is a fresh copy the caller owns; VCTable serves the same counts
// without rescanning.
func (d *Dataset) ValueCounts(a int) []int {
	counts := make([]int, d.attrs[a].DomainSize())
	for _, id := range d.cols[a] {
		if id != Null {
			counts[id-1]++
		}
	}
	return counts
}

// NonNullCount returns the number of tuples with a non-null value in
// attribute a, i.e. the denominator Σ_{v∈Dom(A)} c_D({A=v}) of the paper's
// estimation formula.
func (d *Dataset) NonNullCount(a int) int {
	n := 0
	for _, id := range d.cols[a] {
		if id != Null {
			n++
		}
	}
	return n
}

// VCTable returns the dataset's VC section (Definition 2.9): counts[a][i]
// is c_D({A=v}) for value identifier i+1 of attribute a, and fracs[a][i]
// its independence factor c_D({A=v}) / Σ_{u∈Dom(A)} c_D({A=u}). The table
// is counted once, on the first call, and every call returns the same
// slices, which alias the dataset's storage and must not be modified. It
// is safe for concurrent use.
func (d *Dataset) VCTable() (counts [][]int, fracs [][]float64) {
	d.vcOnce.Do(func() {
		d.vcCounts = make([][]int, len(d.attrs))
		d.vcFracs = make([][]float64, len(d.attrs))
		for a := range d.attrs {
			d.vcCounts[a] = d.ValueCounts(a)
			d.vcFracs[a] = FractionsOf(d.vcCounts[a])
		}
	})
	return d.vcCounts, d.vcFracs
}

// FractionsOf turns one attribute's value counts into independence
// factors: out[i] = counts[i] / Σ counts, all 0 when the counts sum to 0
// (an entirely NULL attribute).
func FractionsOf(counts []int) []float64 {
	var total int64
	for _, c := range counts {
		total += int64(c)
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// VCSize returns |VC|: the total number of (attribute, value) pairs stored in
// the value-count section of any label of this dataset.
func (d *Dataset) VCSize() int {
	n := 0
	for _, a := range d.attrs {
		n += a.DomainSize()
	}
	return n
}

// Project returns a new dataset containing only the attributes at the given
// column indices, in the given order. Column storage is shared with the
// receiver (datasets are immutable after build, so sharing is safe).
func (d *Dataset) Project(attrIdx []int) (*Dataset, error) {
	p := &Dataset{name: d.name, rows: d.rows}
	seen := make(map[int]bool, len(attrIdx))
	for _, i := range attrIdx {
		if i < 0 || i >= len(d.attrs) {
			return nil, fmt.Errorf("dataset: project index %d out of range [0,%d)", i, len(d.attrs))
		}
		if seen[i] {
			return nil, fmt.Errorf("dataset: project index %d repeated", i)
		}
		seen[i] = true
		p.attrs = append(p.attrs, d.attrs[i])
		p.cols = append(p.cols, d.cols[i])
	}
	return p, nil
}

// ProjectNames is Project with attribute names instead of indices.
func (d *Dataset) ProjectNames(names ...string) (*Dataset, error) {
	idx := make([]int, 0, len(names))
	for _, n := range names {
		i, ok := d.AttrIndex(n)
		if !ok {
			return nil, fmt.Errorf("dataset: unknown attribute %q", n)
		}
		idx = append(idx, i)
	}
	return d.Project(idx)
}

// Prefix returns a projection onto the first k attributes. It is used by the
// scalability experiment that varies the number of attributes (paper Fig 8).
func (d *Dataset) Prefix(k int) (*Dataset, error) {
	if k < 0 || k > len(d.attrs) {
		return nil, fmt.Errorf("dataset: prefix %d out of range [0,%d]", k, len(d.attrs))
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	return d.Project(idx)
}

// Head returns a dataset holding the first n rows (or all rows when n exceeds
// NumRows). Column storage is shared via re-slicing.
func (d *Dataset) Head(n int) *Dataset {
	if n > d.rows {
		n = d.rows
	}
	if n < 0 {
		n = 0
	}
	h := &Dataset{name: d.name, attrs: d.attrs, rows: n}
	h.cols = make([][]uint16, len(d.cols))
	for i, c := range d.cols {
		h.cols[i] = c[:n]
	}
	return h
}

// Slice returns a dataset holding rows [lo, hi) with column storage shared
// via re-slicing — no copy, no re-encode. It is the suffix-addressing
// primitive of incremental maintenance: the appended tail of a grown
// dataset becomes a delta dataset in O(attrs). The slice shares the
// receiver's attribute dictionaries, so its domains equal the full
// dataset's — exactly the extension invariant core.Label.Merge requires.
func (d *Dataset) Slice(lo, hi int) (*Dataset, error) {
	if lo < 0 || hi < lo || hi > d.rows {
		return nil, fmt.Errorf("dataset: slice [%d, %d) out of range [0, %d]", lo, hi, d.rows)
	}
	s := &Dataset{name: d.name, attrs: d.attrs, rows: hi - lo}
	s.cols = make([][]uint16, len(d.cols))
	for i, c := range d.cols {
		s.cols[i] = c[lo:hi:hi]
	}
	return s, nil
}

// String summarizes the dataset shape and domains.
func (d *Dataset) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dataset %q: %d rows, %d attributes [", d.name, d.rows, len(d.attrs))
	for i, a := range d.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s(%d)", a.name, a.DomainSize())
	}
	b.WriteString("]")
	return b.String()
}

// Builder accumulates rows and produces an immutable Dataset.
type Builder struct {
	name  string
	attrs []*Attribute
	cols  [][]uint16
	rows  int
	err   error
}

// NewBuilder returns a builder for a dataset with the given name and
// attribute names.
func NewBuilder(name string, attrNames ...string) *Builder {
	b := &Builder{name: name}
	seen := make(map[string]bool, len(attrNames))
	for _, n := range attrNames {
		if seen[n] {
			b.err = fmt.Errorf("dataset: duplicate attribute name %q", n)
			continue
		}
		seen[n] = true
		b.attrs = append(b.attrs, NewAttribute(n))
		b.cols = append(b.cols, nil)
	}
	return b
}

// NewBuilderFrom returns a builder whose attributes extend d's
// dictionaries: values d already knows keep their identifiers, and new
// values extend the domains past them. Incremental ingestion seeds delta
// datasets this way so the delta's encoding extends the base's — the
// dictionary-alignment invariant core.Label.Merge validates. d's
// dictionaries are read, not copied, and never change; d's row data is not
// copied either; the builder starts empty.
func NewBuilderFrom(d *Dataset, name string) *Builder {
	b := &Builder{name: name}
	for _, a := range d.attrs {
		b.attrs = append(b.attrs, a.extension())
		b.cols = append(b.cols, nil)
	}
	return b
}

// NumAttrs returns the number of attributes configured on the builder.
func (b *Builder) NumAttrs() int { return len(b.attrs) }

// NumRows returns the number of rows appended so far.
func (b *Builder) NumRows() int { return b.rows }

// AppendStrings appends one tuple given as string values. Empty strings are
// stored as NULL. The number of values must equal the attribute count.
func (b *Builder) AppendStrings(values ...string) *Builder {
	if b.err != nil {
		return b
	}
	if len(values) != len(b.attrs) {
		b.err = fmt.Errorf("dataset: row has %d values, want %d", len(values), len(b.attrs))
		return b
	}
	for i, v := range values {
		var id uint16
		if v != "" {
			var err error
			id, err = b.attrs[i].intern(v)
			if err != nil {
				b.err = err
				return b
			}
		}
		b.cols[i] = append(b.cols[i], id)
	}
	b.rows++
	return b
}

// AppendIDs appends one tuple given as pre-encoded value identifiers. Each
// identifier must be Null or within the attribute's current domain.
func (b *Builder) AppendIDs(ids ...uint16) *Builder {
	if b.err != nil {
		return b
	}
	if len(ids) != len(b.attrs) {
		b.err = fmt.Errorf("dataset: row has %d ids, want %d", len(ids), len(b.attrs))
		return b
	}
	for i, id := range ids {
		if id != Null && int(id) > b.attrs[i].DomainSize() {
			b.err = fmt.Errorf("dataset: id %d out of domain for attribute %q", id, b.attrs[i].name)
			return b
		}
		b.cols[i] = append(b.cols[i], id)
	}
	b.rows++
	return b
}

// AppendRows bulk-appends every row of src by identifier — no string
// re-encode. src's attributes must match the builder's in name and order,
// and each src domain must be a prefix of the builder's (identifiers then
// mean the same values); seed the builder with NewBuilderFrom, or share
// dictionaries outright via Dataset.Slice, to guarantee it.
func (b *Builder) AppendRows(src *Dataset) *Builder {
	if b.err != nil {
		return b
	}
	if len(src.attrs) != len(b.attrs) {
		b.err = fmt.Errorf("dataset: AppendRows source has %d attributes, want %d", len(src.attrs), len(b.attrs))
		return b
	}
	for i, a := range b.attrs {
		sa := src.attrs[i]
		if sa.name != a.name {
			b.err = fmt.Errorf("dataset: AppendRows attribute %d named %q, want %q", i, sa.name, a.name)
			return b
		}
		if len(sa.dom) > len(a.dom) {
			b.err = fmt.Errorf("dataset: AppendRows source domain of %q has %d values, builder has %d", a.name, len(sa.dom), len(a.dom))
			return b
		}
		for j, v := range sa.dom {
			if a.dom[j] != v {
				b.err = fmt.Errorf("dataset: AppendRows domain of %q diverges at value %d (%q vs %q)", a.name, j, v, a.dom[j])
				return b
			}
		}
	}
	for i := range b.cols {
		b.cols[i] = append(b.cols[i], src.cols[i]...)
	}
	b.rows += src.rows
	return b
}

// InternValue forces the given value into attribute a's domain and returns
// its identifier. Generators use this to fix domains before appending rows.
func (b *Builder) InternValue(a int, value string) (uint16, error) {
	if b.err != nil {
		return Null, b.err
	}
	return b.attrs[a].intern(value)
}

// Err returns the first error encountered while building, if any.
func (b *Builder) Err() error { return b.err }

// Build finalizes the builder into a Dataset. The builder must not be used
// afterwards.
func (b *Builder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.attrs) == 0 {
		return nil, errors.New("dataset: cannot build a dataset with zero attributes")
	}
	d := &Dataset{name: b.name, attrs: b.attrs, cols: b.cols, rows: b.rows}
	b.attrs, b.cols = nil, nil
	return d, nil
}
