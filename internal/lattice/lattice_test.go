package lattice

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestAttrSetBasics(t *testing.T) {
	s := NewAttrSet(0, 2, 5)
	if s.Size() != 3 {
		t.Errorf("size = %d, want 3", s.Size())
	}
	for _, i := range []int{0, 2, 5} {
		if !s.Has(i) {
			t.Errorf("missing %d", i)
		}
	}
	if s.Has(1) || s.Has(3) {
		t.Error("spurious member")
	}
	if got := s.String(); got != "{0,2,5}" {
		t.Errorf("String = %q", got)
	}
	if got := s.Remove(2); got != NewAttrSet(0, 5) {
		t.Errorf("Remove = %v", got)
	}
	if got := s.MaxIndex(); got != 5 {
		t.Errorf("MaxIndex = %d, want 5", got)
	}
	if got := s.MinIndex(); got != 0 {
		t.Errorf("MinIndex = %d, want 0", got)
	}
	if AttrSet(0).MaxIndex() != -1 || AttrSet(0).MinIndex() != -1 {
		t.Error("empty set indices should be -1")
	}
}

func TestAttrSetOps(t *testing.T) {
	a, b := NewAttrSet(0, 1, 2), NewAttrSet(1, 2, 3)
	if got := a.Union(b); got != NewAttrSet(0, 1, 2, 3) {
		t.Errorf("union = %v", got)
	}
	if got := a.Intersect(b); got != NewAttrSet(1, 2) {
		t.Errorf("intersect = %v", got)
	}
	if got := a.Diff(b); got != NewAttrSet(0) {
		t.Errorf("diff = %v", got)
	}
	if !NewAttrSet(1).SubsetOf(a) || a.SubsetOf(b) {
		t.Error("subset relations wrong")
	}
	if !NewAttrSet(1).ProperSubsetOf(a) || a.ProperSubsetOf(a) {
		t.Error("proper subset relations wrong")
	}
}

func TestFromNames(t *testing.T) {
	names := []string{"g", "a", "r", "m"}
	s, err := FromNames(names, "a", "m")
	if err != nil {
		t.Fatal(err)
	}
	if s != NewAttrSet(1, 3) {
		t.Errorf("set = %v", s)
	}
	if got := s.Format(names); got != "{a, m}" {
		t.Errorf("format = %q", got)
	}
	if _, err := FromNames(names, "zz"); err == nil {
		t.Error("unknown name accepted")
	}

	// A CSV may have more columns than a set holds: a name in column 64 or
	// later is an error naming its column, not a panic.
	wide := make([]string, 70)
	for i := range wide {
		wide[i] = fmt.Sprintf("c%d", i)
	}
	if s, err := FromNames(wide, "c0", "c63"); err != nil || s != NewAttrSet(0, 63) {
		t.Errorf("FromNames(c0, c63) = %v, %v", s, err)
	}
	for _, col := range []int{64, 65, 69} {
		name := fmt.Sprintf("c%d", col)
		_, err := FromNames(wide, "c0", name)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q is column %d", name, col)) {
			t.Errorf("FromNames(c0, %s) error = %v, want one naming column %d", name, err, col)
		}
	}
}

func TestParentsChildren(t *testing.T) {
	s := NewAttrSet(1, 3)
	parents := s.Parents()
	if len(parents) != 2 {
		t.Fatalf("parents = %v", parents)
	}
	want := map[AttrSet]bool{NewAttrSet(1): true, NewAttrSet(3): true}
	for _, p := range parents {
		if !want[p] {
			t.Errorf("unexpected parent %v", p)
		}
	}
	children := s.Children(5)
	if len(children) != 3 {
		t.Fatalf("children = %v", children)
	}
	for _, c := range children {
		if !s.ProperSubsetOf(c) || c.Size() != 3 {
			t.Errorf("bad child %v", c)
		}
	}
}

// TestGenExample36 verifies Example 3.6: with order (g, a, r, m), for
// S = {gender, race} = {0, 2}, gen(S) = {{gender, race, marital status}}
// only — {gender, age, race} is a child but not generated.
func TestGenExample36(t *testing.T) {
	s := NewAttrSet(0, 2)
	gen := s.Gen(4)
	if len(gen) != 1 || gen[0] != NewAttrSet(0, 2, 3) {
		t.Errorf("gen = %v, want [{0,2,3}]", gen)
	}
}

// TestGenCoversLatticeExactlyOnce verifies Proposition 3.8: a BFS through
// gen from the empty set generates every non-empty subset exactly once.
func TestGenCoversLatticeExactlyOnce(t *testing.T) {
	for n := 1; n <= 10; n++ {
		seen := make(map[AttrSet]int)
		generated := BFS(n, func(s AttrSet) bool {
			seen[s]++
			return true
		})
		if want := 1<<n - 1; generated != want {
			t.Errorf("n=%d: generated %d nodes, want %d", n, generated, want)
		}
		for s, c := range seen {
			if c != 1 {
				t.Errorf("n=%d: %v generated %d times", n, s, c)
			}
		}
	}
}

// TestGenSubtreePruning: vetoing a node prunes exactly its gen-descendants.
func TestGenSubtreePruning(t *testing.T) {
	// Veto {0}: its gen-subtree is every set containing 0 (gen adds
	// indices in increasing order, so any set containing 0 descends from
	// the singleton {0}).
	var visited []AttrSet
	BFS(4, func(s AttrSet) bool {
		visited = append(visited, s)
		return s != NewAttrSet(0)
	})
	for _, s := range visited {
		if s.Has(0) && s != NewAttrSet(0) {
			t.Errorf("pruned descendant %v visited", s)
		}
	}
}

// TestGenProperty (property): every element of gen(S) is a child of S with a
// strictly larger max index.
func TestGenProperty(t *testing.T) {
	prop := func(raw uint16, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		s := AttrSet(raw) & FullSet(n)
		for _, g := range s.Gen(n) {
			if !s.ProperSubsetOf(g) || g.Size() != s.Size()+1 {
				return false
			}
			added := g.Diff(s)
			if added.MinIndex() <= s.MaxIndex() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCombinations(t *testing.T) {
	var got []AttrSet
	Combinations(4, 2, func(s AttrSet) bool {
		got = append(got, s)
		return true
	})
	if len(got) != 6 {
		t.Fatalf("got %d combinations, want 6", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Error("not strictly increasing")
		}
	}
	for _, s := range got {
		if s.Size() != 2 {
			t.Errorf("%v has size %d", s, s.Size())
		}
	}
}

// TestCombinationsCountProperty (property): the number of enumerated k-sets
// equals C(n, k) for all n ≤ 14.
func TestCombinationsCountProperty(t *testing.T) {
	for n := 0; n <= 14; n++ {
		for k := 0; k <= n; k++ {
			count := 0
			Combinations(n, k, func(AttrSet) bool { count++; return true })
			if want := CountCombinations(n, k); uint64(count) != want {
				t.Errorf("C(%d,%d): enumerated %d, want %d", n, k, count, want)
			}
		}
	}
}

func TestCombinationsEarlyStop(t *testing.T) {
	count := 0
	done := Combinations(6, 3, func(AttrSet) bool { count++; return count < 5 })
	if done || count != 5 {
		t.Errorf("early stop: done=%v count=%d", done, count)
	}
}

func TestCountCombinations(t *testing.T) {
	cases := []struct {
		n, k int
		want uint64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {24, 12, 2704156},
		{5, 6, 0}, {5, -1, 0}, {60, 30, 118264581564861424},
	}
	for _, c := range cases {
		if got := CountCombinations(c.n, c.k); got != c.want {
			t.Errorf("C(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestAllSubsetsLevelOrder(t *testing.T) {
	var sizes []int
	AllSubsets(4, func(s AttrSet) bool {
		sizes = append(sizes, s.Size())
		return true
	})
	if len(sizes) != 15 {
		t.Fatalf("enumerated %d, want 15", len(sizes))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Error("not level order")
		}
	}
}

func TestSortAttrSets(t *testing.T) {
	sets := []AttrSet{NewAttrSet(0, 1, 2), NewAttrSet(3), NewAttrSet(0, 2), NewAttrSet(1)}
	SortAttrSets(sets)
	want := []AttrSet{NewAttrSet(1), NewAttrSet(3), NewAttrSet(0, 2), NewAttrSet(0, 1, 2)}
	for i := range want {
		if sets[i] != want[i] {
			t.Fatalf("order = %v", sets)
		}
	}
}

func TestFullSet(t *testing.T) {
	if FullSet(0) != 0 {
		t.Error("FullSet(0) not empty")
	}
	if got := FullSet(3); got != NewAttrSet(0, 1, 2) {
		t.Errorf("FullSet(3) = %v", got)
	}
	if FullSet(64).Size() != 64 {
		t.Error("FullSet(64) wrong")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(64) did not panic")
		}
	}()
	AttrSet(0).Add(64)
}
