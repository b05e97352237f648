package vcreduce

import (
	"math/rand/v2"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/lattice"
)

// fig11 is the example graph of the appendix (Figure 11): a path
// v1 — v2 — v3.
func fig11() Graph {
	return Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}}
}

func TestGraphValidate(t *testing.T) {
	bad := []Graph{
		{N: 1, Edges: [][2]int{{0, 0}}},
		{N: 3, Edges: nil},
		{N: 3, Edges: [][2]int{{1, 1}}},
		{N: 3, Edges: [][2]int{{0, 5}}},
		{N: 3, Edges: [][2]int{{0, 1}, {1, 0}}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad graph %d accepted", i)
		}
	}
	if err := fig11().Validate(); err != nil {
		t.Errorf("fig11 rejected: %v", err)
	}
}

func TestMinVertexCover(t *testing.T) {
	cases := []struct {
		g    Graph
		want int
	}{
		{fig11(), 1}, // v2 covers both edges
		{Graph{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}, 2},                 // 4-cycle
		{Graph{N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}}}, 1},                         // star
		{Graph{N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}}, 3}, // K4
	}
	for i, c := range cases {
		if got := c.g.MinVertexCoverSize(); got != c.want {
			t.Errorf("case %d: min cover = %d, want %d", i, got, c.want)
		}
	}
}

// TestFigure12Database verifies the reduction output on the appendix's own
// example (Figures 11 and 12): tuple counts per block and total size.
func TestFigure12Database(t *testing.T) {
	in, err := Build(fig11(), 2)
	if err != nil {
		t.Fatal(err)
	}
	d := in.Data
	m := 2 // |E|
	// Edge blocks: 2 edges × 4 combos × |E| copies = 16 tuples.
	// Edge pair blocks: 2 edges × 2 values × 2|E|² copies = 32 tuples.
	// Non-edge pair block ({v1,v3}): 4 combos × |E| copies = 8 tuples.
	if want := 16 + 32 + 8; d.NumRows() != want {
		t.Fatalf("rows = %d, want %d", d.NumRows(), want)
	}
	// Figure 12 top-left: AE=x1 block has the four (A1, A2) combinations,
	// each of count 2.
	for p := uint16(1); p <= 2; p++ {
		for q := uint16(1); q <= 2; q++ {
			vals := make([]uint16, d.NumAttrs())
			vals[0], vals[1], vals[3] = p, q, 1
			pat, err := core.PatternFromIDs(lattice.NewAttrSet(0, 1, 3), vals)
			if err != nil {
				t.Fatal(err)
			}
			if got := core.CountPattern(d, pat); got != m {
				t.Errorf("count(A1=x%d, A2=x%d, AE=x1) = %d, want %d", p, q, got, m)
			}
		}
	}
	// Figure 12 bottom: non-edge pair (v1, v3), each combination count 2.
	for p := uint16(1); p <= 2; p++ {
		for q := uint16(1); q <= 2; q++ {
			vals := make([]uint16, d.NumAttrs())
			vals[0], vals[2] = p, q
			pat, _ := core.PatternFromIDs(lattice.NewAttrSet(0, 2), vals)
			want := m // from the non-edge block
			if p == q {
				// Edge pair blocks of {v1,v2} and {v2,v3} leave A1/A3
				// NULL, so they do not contribute; but the A1=A3 pattern
				// also matches nothing else.
				want = m
			}
			if got := core.CountPattern(d, pat); got != want {
				t.Errorf("count(A1=x%d, A3=x%d) = %d, want %d", p, q, got, want)
			}
		}
	}
	// Edge pair block (Figure 12 right side "x1 x1 | 8"): count of
	// {A2=x1, A3=x1} = 2|E|² (pair block) + |E| (edge block combo (1,1)).
	vals := make([]uint16, d.NumAttrs())
	vals[1], vals[2] = 1, 1
	pat, _ := core.PatternFromIDs(lattice.NewAttrSet(1, 2), vals)
	if got, want := core.CountPattern(d, pat), 2*m*m+m; got != want {
		t.Errorf("count(A2=x1, A3=x1) = %d, want %d", got, want)
	}
	// |P| = |E| patterns, each of count |E|.
	if len(in.Patterns) != m {
		t.Fatalf("patterns = %d", len(in.Patterns))
	}
	for i, p := range in.Patterns {
		if got := core.CountPattern(d, p); got != m {
			t.Errorf("pattern %d count = %d, want %d", i, got, m)
		}
	}
}

// TestLemmaA5Forward verifies Lemma A.5's supporting computations:
// (1) S = {AE} ∪ {endpoint} gives error 0 on that edge's pattern;
// (2) S = {both endpoints}, AE ∉ S, gives error exactly |E|+1;
// (3) S disjoint from {AE, Ai, Aj} gives error > 0.
func TestLemmaA5Forward(t *testing.T) {
	g := Graph{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}}}
	in, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := float64(len(g.Edges))
	l := must(core.BuildLabel(in.Data, in.CoverAttrSet([]int{1}), core.CountOptions{Workers: 1})) // {AE, A2}
	// Edge e1 = {v1, v2}: endpoint v2 ∈ S ⇒ exact.
	if got := core.AbsError(int(m), l.Estimate(in.Patterns[0])); got != 0 {
		t.Errorf("case 1 error = %v, want 0", got)
	}
	// Case 2: S = {A1, A2} without AE on edge e1.
	l2 := must(core.BuildLabel(in.Data, lattice.NewAttrSet(0, 1), core.CountOptions{Workers: 1}))
	if got := core.AbsError(int(m), l2.Estimate(in.Patterns[0])); got != m+1 {
		t.Errorf("case 2 error = %v, want |E|+1 = %v", got, m+1)
	}
	// Case 3: S = {A4} for edge e1 = {v1, v2}: pure independence.
	l3 := must(core.BuildLabel(in.Data, lattice.NewAttrSet(3), core.CountOptions{Workers: 1}))
	if got := core.AbsError(int(m), l3.Estimate(in.Patterns[0])); got <= 0 {
		t.Errorf("case 3 error = %v, want > 0", got)
	}
}

// TestPropositionA4Forward verifies the forward direction of Proposition
// A.4 on random small graphs: a vertex cover of size k yields an attribute
// set whose label has error 0 and the size Lemma A.8 predicts, within B_s.
func TestPropositionA4Forward(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, 4+trial%2, 3+trial%3)
		k := g.MinVertexCoverSize()
		if k < 1 || k >= g.N {
			continue
		}
		in, err := Build(g, k)
		if err != nil {
			t.Fatal(err)
		}
		// Find a minimum cover.
		var cover []int
		lattice.Combinations(g.N, k, func(s lattice.AttrSet) bool {
			cm := make(map[int]bool)
			for _, v := range s.Members() {
				cm[v] = true
			}
			if g.IsVertexCover(cm) {
				cover = s.Members()
				return false
			}
			return true
		})
		if cover == nil {
			t.Fatalf("trial %d: no cover of size %d found", trial, k)
		}
		s := in.CoverAttrSet(cover)
		if got := must(in.LabelMaxError(s)); got != 0 {
			t.Errorf("trial %d: cover label error = %v, want 0", trial, got)
		}
		size := in.LabelSize(s)
		if size > in.Bound {
			t.Errorf("trial %d: label size %d exceeds bound %d", trial, size, in.Bound)
		}
		if want := in.PredictedLabelSize(s); size != want {
			t.Errorf("trial %d: label size %d, Lemma A.8 predicts %d (S=%v)", trial, size, want, s)
		}
	}
}

// TestLemmaA8Formula verifies the closed form for arbitrary AE-containing
// sets (not only covers).
func TestLemmaA8Formula(t *testing.T) {
	g := Graph{N: 5, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}}
	in, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 20; trial++ {
		s := lattice.NewAttrSet(in.AEIndex())
		for v := 0; v < g.N; v++ {
			if rng.Float64() < 0.5 {
				s = s.Add(v)
			}
		}
		if s.Size() < 2 {
			continue
		}
		if got, want := in.LabelSize(s), in.PredictedLabelSize(s); got != want {
			t.Errorf("S=%v: size %d, predicted %d", s, got, want)
		}
	}
}

// TestLemmaA5ReverseGap documents the reproduction note in the package
// comment: under the generalized estimation semantics the paper itself uses
// in Lemma A.5 case 1, the label over S = {AE} alone has error 0 on every
// reduction pattern, so the reverse direction of Lemma A.5 ("error 0 ⇒ an
// endpoint of the edge is in S") does not hold as stated. If this test ever
// fails, the estimation semantics changed and the reduction should be
// re-examined.
func TestLemmaA5ReverseGap(t *testing.T) {
	in, err := Build(fig11(), 2)
	if err != nil {
		t.Fatal(err)
	}
	aeOnly := lattice.NewAttrSet(in.AEIndex())
	if got := must(in.LabelMaxError(aeOnly)); got != 0 {
		t.Errorf("Err(L_{AE}, P) = %v; the documented gap expected exactly 0", got)
	}
	// The witness search therefore finds a zero-error in-bound label even
	// when no size-k cover is required to exist.
	if _, found := must2(in.ZeroErrorWithinBound()); !found {
		t.Error("no zero-error in-bound label found at all")
	}
}

// TestBuildValidation rejects out-of-range budgets.
func TestBuildValidation(t *testing.T) {
	if _, err := Build(fig11(), 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Build(fig11(), 3); err == nil {
		t.Error("k=N accepted")
	}
	if _, err := Build(Graph{N: 2}, 1); err == nil {
		t.Error("edgeless graph accepted")
	}
}

// randomGraph draws a connected-ish random simple graph with n vertices and
// about m edges.
func randomGraph(rng *rand.Rand, n, m int) Graph {
	g := Graph{N: n}
	seen := make(map[[2]int]bool)
	for len(g.Edges) < m {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			continue
		}
		seen[key] = true
		g.Edges = append(g.Edges, [2]int{key[0], key[1]})
	}
	return g
}
