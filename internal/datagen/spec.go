// Package datagen synthesizes the evaluation datasets. The paper evaluates
// on three real datasets (BlueNile, COMPAS, Credit Card) that are not
// redistributable and not reachable from an offline build, so this package
// provides seeded emulators that reproduce each dataset's published shape —
// row count, attribute count, per-attribute cardinalities — and, crucially,
// the correlation structure that drives the paper's results (see DESIGN.md,
// "Substitutions"). It also provides the random-tuple augmentation used by
// the data-size scalability experiment (Fig 7).
//
// The generation model is a simple Bayesian-network-style specification:
// each column is either an independent categorical draw, a deterministic
// function of an earlier column, or a conditional draw given an earlier
// column, optionally mixed with an independent draw ("fidelity" < 1).
package datagen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"pcbl/internal/dataset"
)

// Col specifies the generation model of one column.
type Col struct {
	// Name is the attribute name.
	Name string
	// Values is the domain the column draws from. For purely Map-derived
	// columns it must still list every producible value.
	Values []string
	// Weights are the marginal draw weights aligned with Values; uniform
	// when nil. They need not sum to 1.
	Weights []float64
	// Parent, when non-empty, names an earlier column this one depends on.
	Parent string
	// Map deterministically derives the value from the parent's value.
	// Missing parent values fall back to the marginal draw.
	Map map[string]string
	// CPT gives per-parent-value draw weights over Values; missing parent
	// values fall back to the marginal draw. Ignored when Map is set.
	CPT map[string][]float64
	// Fidelity is the probability of using the dependent rule (Map or
	// CPT) rather than the marginal draw. Defaults to 1 when a Parent is
	// set. A deterministic pair of columns (fidelity 1 with Map) is how
	// the emulators plant the strong correlations the paper's optimal
	// labels exploit.
	Fidelity float64
}

// Spec is an ordered list of column models; parents must precede children.
type Spec struct {
	// Name is the generated dataset's display name.
	Name string
	// Cols are the column models in generation order.
	Cols []Col
}

// Validate checks structural consistency of the spec.
func (s *Spec) Validate() error {
	pos := make(map[string]int, len(s.Cols))
	for i, c := range s.Cols {
		if c.Name == "" {
			return fmt.Errorf("datagen: column %d has no name", i)
		}
		if _, dup := pos[c.Name]; dup {
			return fmt.Errorf("datagen: duplicate column %q", c.Name)
		}
		if len(c.Values) == 0 {
			return fmt.Errorf("datagen: column %q has an empty domain", c.Name)
		}
		if c.Weights != nil && len(c.Weights) != len(c.Values) {
			return fmt.Errorf("datagen: column %q has %d weights for %d values", c.Name, len(c.Weights), len(c.Values))
		}
		if c.Parent != "" {
			p, ok := pos[c.Parent]
			if !ok {
				return fmt.Errorf("datagen: column %q depends on %q which does not precede it", c.Name, c.Parent)
			}
			_ = p
			if c.Map == nil && c.CPT == nil {
				return fmt.Errorf("datagen: column %q names a parent but has neither Map nor CPT", c.Name)
			}
			valSet := make(map[string]bool, len(c.Values))
			for _, v := range c.Values {
				valSet[v] = true
			}
			for from, to := range c.Map {
				_ = from
				if !valSet[to] {
					return fmt.Errorf("datagen: column %q maps to %q which is outside its domain", c.Name, to)
				}
			}
			for pv, w := range c.CPT {
				if len(w) != len(c.Values) {
					return fmt.Errorf("datagen: column %q CPT row %q has %d weights for %d values", c.Name, pv, len(w), len(c.Values))
				}
			}
		} else if c.Map != nil || c.CPT != nil {
			return fmt.Errorf("datagen: column %q has a dependent rule but no parent", c.Name)
		}
		pos[c.Name] = i
	}
	return nil
}

// Generate synthesizes rows tuples under the spec with a deterministic seed.
func (s *Spec) Generate(rows int, seed uint64) (*dataset.Dataset, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if rows < 0 {
		return nil, fmt.Errorf("datagen: negative row count %d", rows)
	}
	names := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		names[i] = c.Name
	}
	b := dataset.NewBuilder(s.Name, names...)
	// Pre-intern full domains so identifiers are stable across row counts
	// and seeds: value k of column i always gets identifier k+1.
	for i, c := range s.Cols {
		for _, v := range c.Values {
			if _, err := b.InternValue(i, v); err != nil {
				return nil, err
			}
		}
	}
	// Pre-compute cumulative weights.
	marg := make([][]float64, len(s.Cols))
	cpts := make([]map[string][]float64, len(s.Cols))
	for i, c := range s.Cols {
		marg[i] = cumulative(c.Weights, len(c.Values))
		if c.CPT != nil {
			m := make(map[string][]float64, len(c.CPT))
			for pv, w := range c.CPT {
				m[pv] = cumulative(w, len(c.Values))
			}
			cpts[i] = m
		}
	}
	pos := make(map[string]int, len(s.Cols))
	for i, c := range s.Cols {
		pos[c.Name] = i
	}

	rng := rand.New(rand.NewPCG(seed, 0xDA3E39CB94B95BDB))
	vals := make([]string, len(s.Cols))
	for r := 0; r < rows; r++ {
		for i, c := range s.Cols {
			dependent := c.Parent != ""
			if dependent && c.Fidelity > 0 && c.Fidelity < 1 {
				dependent = rng.Float64() < c.Fidelity
			}
			if dependent {
				pv := vals[pos[c.Parent]]
				if c.Map != nil {
					if to, ok := c.Map[pv]; ok {
						vals[i] = to
						continue
					}
				} else if cum, ok := cpts[i][pv]; ok {
					vals[i] = c.Values[draw(rng, cum)]
					continue
				}
			}
			vals[i] = c.Values[draw(rng, marg[i])]
		}
		b.AppendStrings(vals...)
	}
	return b.Build()
}

// cumulative turns weights (uniform when nil) into a cumulative sum vector.
func cumulative(w []float64, n int) []float64 {
	cum := make([]float64, n)
	run := 0.0
	for i := 0; i < n; i++ {
		inc := 1.0
		if w != nil {
			inc = w[i]
			if inc < 0 {
				inc = 0
			}
		}
		run += inc
		cum[i] = run
	}
	return cum
}

// draw samples an index from a cumulative weight vector: the first whose
// cumulative weight exceeds a uniform draw below the total, found by
// binary search (domains reach 200 values), so a zero-weight value is
// never drawn.
func draw(rng *rand.Rand, cum []float64) int {
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0
	}
	x := rng.Float64() * total
	return min(sort.Search(len(cum), func(i int) bool { return cum[i] > x }), len(cum)-1)
}

// ZipfWeights returns n weights following a Zipf distribution with exponent
// s (weight of rank r ∝ 1/r^s); handy for skewed marginals.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}
