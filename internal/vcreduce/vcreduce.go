// Package vcreduce implements the reduction from Vertex Cover to the
// Optimal Label decision problem that proves Theorem 2.17 (paper Appendix
// A). Given a graph G = (V, E) and a budget k, it constructs the reduction
// database (whose tuples deliberately leave most attributes NULL), the
// pattern set P (one pattern {AE = xr, Ai = x1, Aj = x1} per edge), and the
// size bound B_s = 2·|E| + 4·Σ_{i=1}^{k-1} i, and provides verifiers for the
// lemmas the proof rests on.
//
// Reproduction note. The appendix's Lemma A.5 claims Err(L_S(D), P) = 0 iff
// AE ∈ S and an endpoint of each edge is in S. The forward direction (a
// cover plus AE yields a zero-error label of the predicted size) checks out
// and is verified by this package's tests. The reverse direction, however,
// does not hold under the paper's own generalized estimation semantics
// (restriction to S ∩ Attr(p), the semantics its Lemma A.5 case 1 and
// Proposition 3.2 use): the label over S = {AE} alone already estimates
// every pattern in P exactly — c_D(p|{AE}) = 4|E| and the two endpoint
// fractions contribute 1/4, giving exactly c_D(p) = |E| — with a PC section
// the lemma's own accounting sizes at 0. The lemma's "otherwise" case
// silently switches to pure independence estimation for such sets, which is
// where the gap lies. Our tests document this observation
// (TestLemmaA5ReverseGap) alongside the verified forward direction; the
// NP-hardness claim itself is unaffected by our system (we implement the
// optimization problem, not the proof).
package vcreduce

import (
	"fmt"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// Graph is a simple undirected graph on vertices 0..N-1.
type Graph struct {
	// N is the number of vertices.
	N int
	// Edges lists undirected edges; self loops are invalid.
	Edges [][2]int
}

// Validate enforces the preconditions of Theorem A.2: at least two vertices,
// at least one edge, no self loops, no duplicate edges, endpoints in range.
func (g Graph) Validate() error {
	if g.N < 2 {
		return fmt.Errorf("vcreduce: need at least 2 vertices, got %d", g.N)
	}
	if len(g.Edges) == 0 {
		return fmt.Errorf("vcreduce: need at least one edge")
	}
	seen := make(map[[2]int]bool, len(g.Edges))
	for _, e := range g.Edges {
		u, v := e[0], e[1]
		if u == v {
			return fmt.Errorf("vcreduce: self loop at %d", u)
		}
		if u < 0 || v < 0 || u >= g.N || v >= g.N {
			return fmt.Errorf("vcreduce: edge (%d,%d) out of range", u, v)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return fmt.Errorf("vcreduce: duplicate edge (%d,%d)", u, v)
		}
		seen[key] = true
	}
	return nil
}

// IsVertexCover reports whether the vertex set covers every edge.
func (g Graph) IsVertexCover(cover map[int]bool) bool {
	for _, e := range g.Edges {
		if !cover[e[0]] && !cover[e[1]] {
			return false
		}
	}
	return true
}

// MinVertexCoverSize brute-forces the minimum vertex cover size; intended
// for the small graphs used in tests.
func (g Graph) MinVertexCoverSize() int {
	for k := 0; k <= g.N; k++ {
		found := false
		lattice.Combinations(g.N, k, func(s lattice.AttrSet) bool {
			cover := make(map[int]bool, k)
			for _, v := range s.Members() {
				cover[v] = true
			}
			if g.IsVertexCover(cover) {
				found = true
				return false
			}
			return true
		})
		if found {
			return k
		}
	}
	return g.N
}

// Instance is the output of the reduction.
type Instance struct {
	// Graph is the reduction input.
	Graph Graph
	// K is the cover budget.
	K int
	// Data is the reduction database: one attribute A_v per vertex
	// (columns 0..N-1) plus the edge attribute AE (column N).
	Data *dataset.Dataset
	// Patterns is P: {AE = xr, A_i = x1, A_j = x1} per edge e_r = {i, j}.
	Patterns []core.Pattern
	// Bound is B_s = 2·|E| + 4·Σ_{i=1}^{k-1} i.
	Bound int
}

// AEIndex returns the column index of the edge attribute.
func (in *Instance) AEIndex() int { return in.Graph.N }

// Build runs the reduction for graph g and cover budget k
// (k ∈ {2, …, |V|−1} per Theorem A.2; k = 1 is additionally accepted for
// testing the lemmas on trivial graphs).
func Build(g Graph, k int) (*Instance, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if k < 1 || k >= g.N {
		return nil, fmt.Errorf("vcreduce: k = %d out of range [1, %d)", k, g.N)
	}
	m := len(g.Edges)
	names := make([]string, g.N+1)
	for v := 0; v < g.N; v++ {
		names[v] = fmt.Sprintf("A%d", v+1)
	}
	names[g.N] = "AE"
	b := dataset.NewBuilder("vcreduce", names...)
	// Fix domains: x1, x2 for vertex attributes; x1..xm for AE.
	for v := 0; v < g.N; v++ {
		for _, val := range []string{"x1", "x2"} {
			if _, err := b.InternValue(v, val); err != nil {
				return nil, err
			}
		}
	}
	for r := 0; r < m; r++ {
		if _, err := b.InternValue(g.N, fmt.Sprintf("x%d", r+1)); err != nil {
			return nil, err
		}
	}

	row := make([]uint16, g.N+1)
	clear := func() {
		for i := range row {
			row[i] = dataset.Null
		}
	}
	// Edge blocks: for edge e_r = {i, j}, all four (x_p, x_q) combinations
	// with AE = x_r, each |E| times.
	for r, e := range g.Edges {
		for p := uint16(1); p <= 2; p++ {
			for q := uint16(1); q <= 2; q++ {
				clear()
				row[e[0]], row[e[1]], row[g.N] = p, q, uint16(r+1)
				for c := 0; c < m; c++ {
					b.AppendIDs(row...)
				}
			}
		}
	}
	// Pair blocks: for every unordered vertex pair {i, j}.
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if g.hasEdge(i, j) {
				// 2·|E|² tuples with A_i = A_j = x_p for each p.
				for p := uint16(1); p <= 2; p++ {
					clear()
					row[i], row[j] = p, p
					for c := 0; c < 2*m*m; c++ {
						b.AppendIDs(row...)
					}
				}
			} else {
				// |E| tuples for each of the four combinations.
				for p := uint16(1); p <= 2; p++ {
					for q := uint16(1); q <= 2; q++ {
						clear()
						row[i], row[j] = p, q
						for c := 0; c < m; c++ {
							b.AppendIDs(row...)
						}
					}
				}
			}
		}
	}
	d, err := b.Build()
	if err != nil {
		return nil, err
	}

	in := &Instance{Graph: g, K: k, Data: d, Bound: 2*m + 2*k*(k-1)}
	for r, e := range g.Edges {
		vals := make([]uint16, g.N+1)
		vals[e[0]], vals[e[1]], vals[g.N] = 1, 1, uint16(r+1)
		p, err := core.PatternFromIDs(lattice.NewAttrSet(e[0], e[1], g.N), vals)
		if err != nil {
			return nil, err
		}
		in.Patterns = append(in.Patterns, p)
	}
	return in, nil
}

func (g Graph) hasEdge(i, j int) bool {
	for _, e := range g.Edges {
		if (e[0] == i && e[1] == j) || (e[0] == j && e[1] == i) {
			return true
		}
	}
	return false
}

// CoverAttrSet maps a vertex cover to the attribute set {AE} ∪ {A_v}.
func (in *Instance) CoverAttrSet(cover []int) lattice.AttrSet {
	s := lattice.NewAttrSet(in.AEIndex())
	for _, v := range cover {
		s = s.Add(v)
	}
	return s
}

// LabelMaxError evaluates Err(L_S(D), P) over the reduction's pattern set.
func (in *Instance) LabelMaxError(s lattice.AttrSet) (float64, error) {
	l, err := core.BuildLabel(in.Data, s, core.CountOptions{Workers: 1})
	if err != nil {
		return 0, err
	}
	ps, err := core.FromPatterns(in.Data, in.Patterns)
	if err != nil {
		panic(err) // patterns were built against in.Data; cannot mismatch
	}
	maxErr, _ := core.MaxAbsError(l, ps, core.MaxErrOptions{Workers: 1})
	return maxErr, nil
}

// LabelSize returns the reduction's label-size accounting for S: partial
// patterns (NULL-dropped restrictions) with at least two attributes, per
// Lemma A.8.
func (in *Instance) LabelSize(s lattice.AttrSet) int {
	sz, _ := core.PartialLabelSize(in.Data, s, -1)
	return sz
}

// PredictedLabelSize computes Lemma A.8's closed form for an attribute set
// S = {AE} ∪ (vertex attributes): 2·|E'| + 4·Σ_{i=1}^{k-1} i, where E' is
// the set of edges with at least one endpoint attribute in S and k = |S|−1.
func (in *Instance) PredictedLabelSize(s lattice.AttrSet) int {
	if !s.Has(in.AEIndex()) {
		panic("vcreduce: PredictedLabelSize requires AE ∈ S")
	}
	covered := 0
	for _, e := range in.Graph.Edges {
		if s.Has(e[0]) || s.Has(e[1]) {
			covered++
		}
	}
	k := s.Size() - 1
	return 2*covered + 2*k*(k-1)
}

// ZeroErrorWithinBound brute-forces whether some attribute set yields a
// zero-error label within the bound, returning a witness. Only feasible for
// the small graphs used in tests.
func (in *Instance) ZeroErrorWithinBound() (lattice.AttrSet, bool, error) {
	n := in.Data.NumAttrs()
	var witness lattice.AttrSet
	found := false
	var err error
	lattice.AllSubsets(n, func(s lattice.AttrSet) bool {
		if in.LabelSize(s) > in.Bound {
			return true
		}
		var maxErr float64
		if maxErr, err = in.LabelMaxError(s); err != nil {
			return false
		}
		if maxErr == 0 {
			witness, found = s, true
			return false
		}
		return true
	})
	return witness, found, err
}
