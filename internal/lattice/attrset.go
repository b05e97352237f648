// Package lattice implements the label lattice of paper §III-B: subsets of a
// dataset's attributes ordered by inclusion, together with the gen operator
// (Definition 3.5) that generates each lattice node exactly once in a
// top-down, set-enumeration-tree traversal.
//
// Attribute sets are represented as 64-bit bitmasks, so a dataset may have at
// most 64 attributes — far beyond the paper's evaluation datasets (7, 17 and
// 24 attributes) and beyond what multi-dimensional count profiling can use in
// practice.
package lattice

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// MaxAttrs is the maximum number of attributes an AttrSet can represent.
const MaxAttrs = 64

// AttrSet is a set of attribute indices in [0, MaxAttrs), stored as a bitmask.
// The zero value is the empty set.
type AttrSet uint64

// NewAttrSet returns the set containing the given attribute indices.
func NewAttrSet(idx ...int) AttrSet {
	var s AttrSet
	for _, i := range idx {
		s = s.Add(i)
	}
	return s
}

// FullSet returns the set {0, 1, …, n-1}.
func FullSet(n int) AttrSet {
	if n <= 0 {
		return 0
	}
	if n >= MaxAttrs {
		return ^AttrSet(0)
	}
	return AttrSet(1)<<n - 1
}

// Has reports whether attribute i is a member.
func (s AttrSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Add returns s ∪ {i}.
func (s AttrSet) Add(i int) AttrSet {
	if i < 0 || i >= MaxAttrs {
		panic(fmt.Sprintf("lattice: attribute index %d out of range [0,%d)", i, MaxAttrs))
	}
	return s | 1<<uint(i)
}

// Remove returns s \ {i}.
func (s AttrSet) Remove(i int) AttrSet { return s &^ (1 << uint(i)) }

// Union returns s ∪ t.
func (s AttrSet) Union(t AttrSet) AttrSet { return s | t }

// Intersect returns s ∩ t.
func (s AttrSet) Intersect(t AttrSet) AttrSet { return s & t }

// Diff returns s \ t.
func (s AttrSet) Diff(t AttrSet) AttrSet { return s &^ t }

// Size returns |s|.
func (s AttrSet) Size() int { return bits.OnesCount64(uint64(s)) }

// IsEmpty reports whether s is the empty set.
func (s AttrSet) IsEmpty() bool { return s == 0 }

// SubsetOf reports whether s ⊆ t.
func (s AttrSet) SubsetOf(t AttrSet) bool { return s&^t == 0 }

// ProperSubsetOf reports whether s ⊂ t.
func (s AttrSet) ProperSubsetOf(t AttrSet) bool { return s != t && s.SubsetOf(t) }

// Members returns the attribute indices in increasing order.
func (s AttrSet) Members() []int {
	out := make([]int, 0, s.Size())
	for v := uint64(s); v != 0; v &= v - 1 {
		out = append(out, bits.TrailingZeros64(v))
	}
	return out
}

// MaxIndex returns idx(S) from Definition 3.5 — the largest attribute index
// in s — or -1 for the empty set.
func (s AttrSet) MaxIndex() int {
	if s == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(s))
}

// MinIndex returns the smallest member index, or -1 for the empty set.
func (s AttrSet) MinIndex() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// String renders the set as "{0,2,5}".
func (s AttrSet) String() string {
	m := s.Members()
	parts := make([]string, len(m))
	for i, v := range m {
		parts[i] = fmt.Sprint(v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Format renders the set using attribute names: "{gender, race}".
func (s AttrSet) Format(names []string) string {
	m := s.Members()
	parts := make([]string, len(m))
	for i, v := range m {
		if v < len(names) {
			parts[i] = names[v]
		} else {
			parts[i] = fmt.Sprint(v)
		}
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// FromNames builds an AttrSet from attribute names resolved against the
// given name list. Unknown names, and names whose column lies at or beyond
// MaxAttrs (a CSV may have more columns than a set can hold), are reported
// as an error.
func FromNames(names []string, members ...string) (AttrSet, error) {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	var s AttrSet
	for _, m := range members {
		i, ok := idx[m]
		if !ok {
			return 0, fmt.Errorf("lattice: unknown attribute %q", m)
		}
		if i >= MaxAttrs {
			return 0, fmt.Errorf("lattice: attribute %q is column %d; an attribute set holds only the first %d columns", m, i, MaxAttrs)
		}
		s = s.Add(i)
	}
	return s, nil
}

// Parents returns the direct parents of s in the label lattice: every set
// obtained by removing exactly one member. The empty set has no parents.
func (s AttrSet) Parents() []AttrSet {
	m := s.Members()
	out := make([]AttrSet, 0, len(m))
	for _, i := range m {
		out = append(out, s.Remove(i))
	}
	return out
}

// Children returns the direct children of s within a universe of n
// attributes: every set obtained by adding one non-member below n.
func (s AttrSet) Children(n int) []AttrSet {
	out := make([]AttrSet, 0, n-s.Size())
	for i := 0; i < n; i++ {
		if !s.Has(i) {
			out = append(out, s.Add(i))
		}
	}
	return out
}

// Gen implements the gen operator of Definition 3.5: the children of s
// obtained by adding a single attribute with index strictly greater than
// idx(S), within a universe of n attributes. Traversing the lattice from the
// empty set through Gen visits each node exactly once (Proposition 3.8).
func (s AttrSet) Gen(n int) []AttrSet {
	start := s.MaxIndex() + 1
	if start >= n {
		return nil
	}
	out := make([]AttrSet, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, s.Add(i))
	}
	return out
}

// SortAttrSets orders sets by size, then by numeric value; useful for
// deterministic test output.
func SortAttrSets(sets []AttrSet) {
	sort.Slice(sets, func(i, j int) bool {
		si, sj := sets[i].Size(), sets[j].Size()
		if si != sj {
			return si < sj
		}
		return sets[i] < sets[j]
	})
}
