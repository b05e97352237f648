package core

import (
	"context"
	"math/bits"
	"sync"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// Label is a pattern count–based label L_S(D) (Definition 2.9): the pattern
// counts PC of every positive-count pattern over the attribute set S, plus
// the value counts VC of every attribute value in D. The label size — the
// quantity bounded by B_s in the optimal-label problem — is |PC|; VC is
// fixed for a given dataset, so a label built from a dataset serves the
// dataset's own read-only VC table (dataset.Dataset.VCTable), shared by all
// its labels and counted once. Two kinds of label hold VC of their own,
// because their dataset's rows are not the rows VC counts: a label reopened
// from an artifact (its dataset is schema-only) and a merged label (its
// dataset holds only the delta's rows).
//
// A Label retains a reference to its dataset to serve VC lookups and build
// marginal indexes; internal/artifact persists it as the self-contained
// form that ships as dataset metadata.
type Label struct {
	d     *dataset.Dataset
	attrs lattice.AttrSet
	pc    *PC
	rows  int          // |D|; kept apart from d so artifact labels survive a schema-only dataset
	copts CountOptions // engine options shared by lazy marginal builds

	// fromPC marks a label reopened from an artifact: its dataset is
	// schema-only (zero rows), so lazy marginals are summed from the PC
	// section instead of rescanning — identical on NULL-free data, and the
	// artifact additionally persists every dataset-built marginal the
	// in-process label had materialized.
	fromPC bool

	// The VC section and its independence fractions. Both are read-only:
	// for a dataset-built label they are the dataset's shared VC table, and
	// a merge replaces them with fresh slices instead of writing in place.
	fracs [][]float64 // fracs[a][id-1] = c_D({A=v}) / Σ_u c_D({A=u})
	vc    [][]int     // vc[a][id-1] = c_D({A=v})

	mu        sync.Mutex
	marginals map[lattice.AttrSet]*PC // lazy indexes for S' ⊂ S lookups
}

// BuildLabel computes L_S(D) through the counting engine: the PC group-by
// and every lazily built marginal index use opts (Workers: 1 for a
// single-threaded build, as callers already running one build per worker
// use). opts.Ctx bounds the PC group-by (block/run granularity); a fired
// context aborts the build cleanly — spill temp state removed, nothing
// half-counted — and returns the typed context error with a nil label. The
// finished label does NOT retain opts.Ctx: lazy marginal builds and
// queries are bounded by the per-call contexts of CountCtx / EstimateCtx /
// MarginalPCCtx instead, so a long-lived label never carries its build's
// (long-dead) context.
func BuildLabel(d *dataset.Dataset, s lattice.AttrSet, opts CountOptions) (*Label, error) {
	pc, err := BuildPC(d, s, opts)
	if err != nil {
		return nil, err
	}
	opts.Ctx = nil // the label outlives the build
	vc, fracs := d.VCTable()
	return &Label{
		d:         d,
		attrs:     s,
		pc:        pc,
		rows:      d.NumRows(),
		copts:     opts,
		fracs:     fracs,
		vc:        vc,
		marginals: make(map[lattice.AttrSet]*PC),
	}, nil
}

// BuildLabelOpts is BuildLabel for callers that take no error; it panics
// if opts.Ctx fires mid-build. It remains because cmd/pcblbench calls it,
// and that benchmark's sources stay fixed so its runs compare across
// commits; new code calls BuildLabel.
func BuildLabelOpts(d *dataset.Dataset, s lattice.AttrSet, opts CountOptions) *Label {
	l, err := BuildLabel(d, s, opts)
	if err != nil {
		panic("core: BuildLabelOpts: " + err.Error())
	}
	return l
}

// NewLabelFromParts assembles a label from deserialized pieces — the
// constructor behind internal/artifact. d may be schema-only (attribute
// dictionaries with zero rows): rows carries |D| and vc carries the VC
// section, so estimation never consults the dataset's row data. The label
// keeps vc as its own VC, not d's VCTable (all zeros on a schema-only
// dataset), and vc must not be modified afterwards. The label serves lazy
// marginals by summing the PC section (see Label.fromPC); callers restore
// previously materialized marginals with PutMarginal.
func NewLabelFromParts(d *dataset.Dataset, rows int, s lattice.AttrSet, pc *PC, vc [][]int) *Label {
	l := &Label{
		d:         d,
		attrs:     s,
		pc:        pc,
		rows:      rows,
		copts:     CountOptions{},
		fromPC:    true,
		fracs:     make([][]float64, d.NumAttrs()),
		vc:        vc,
		marginals: make(map[lattice.AttrSet]*PC),
	}
	for a := 0; a < d.NumAttrs(); a++ {
		l.fracs[a] = dataset.FractionsOf(vc[a])
	}
	return l
}

// Dataset returns the dataset the label was built from.
func (l *Label) Dataset() *dataset.Dataset { return l.d }

// Attrs returns S — the attribute set the PC section covers.
func (l *Label) Attrs() lattice.AttrSet { return l.attrs }

// Size returns |PC| = |P_S|, the label size.
func (l *Label) Size() int { return l.pc.Size() }

// Rows returns |D|, the row count of the dataset the label was built from.
// Unlike Dataset().NumRows() it survives artifact round-trips, where the
// attached dataset is schema-only.
func (l *Label) Rows() int { return l.rows }

// CountCtx returns the exact restricted count c_D(p|S ∩ Attr(p)) when p
// constrains only attributes of S — the full PC section for Attr(p) = S, a
// marginal index for Attr(p) ⊂ S, |D| for the empty pattern. ok is false
// when p constrains an attribute outside S (use EstimateCtx there: the
// count is then approximated, not exact).
//
// A label whose PC section is merge-on-read reads run files on demand, and
// a failed (once-retried) read returns the error instead of a wrong count;
// the serving layer degrades the request instead of crashing the process.
// ctx bounds the on-demand work a lookup can trigger — run-file loads and
// first-use marginal index builds — and a fired context returns the typed
// context error. A cancelled marginal build caches nothing, so a later
// call rebuilds from scratch. A nil ctx never cancels.
func (l *Label) CountCtx(ctx context.Context, p Pattern) (count int, ok bool, err error) {
	if !p.attrs.Diff(l.attrs).IsEmpty() {
		return 0, false, nil
	}
	switch {
	case p.attrs == l.attrs:
		count, err = l.pc.LookupValsCtx(ctx, p.vals)
		return count, err == nil, err
	case p.attrs.IsEmpty():
		return l.rows, true, nil
	default:
		m, err := l.marginal(ctx, p.attrs)
		if err != nil {
			return 0, false, err
		}
		count, err = m.LookupValsCtx(ctx, p.vals)
		return count, err == nil, err
	}
}

// MarginalPCCtx returns the pattern-count index over sub ⊆ S: the label's
// PC section for sub = S, a (lazily built, cached) marginal index for
// proper subsets. ok is false when sub reaches outside S. Query services
// use it to enumerate restricted-count distributions. Lazily deriving a
// marginal from a merge-on-read PC section reads run files, and a failed
// read returns the error. ctx bounds the first-use marginal build (dataset
// rescan or PC-section summation); a fired context returns the typed
// context error and caches nothing. A nil ctx never cancels.
func (l *Label) MarginalPCCtx(ctx context.Context, sub lattice.AttrSet) (pc *PC, ok bool, err error) {
	if !sub.SubsetOf(l.attrs) || sub.IsEmpty() {
		return nil, false, nil
	}
	if sub == l.attrs {
		return l.pc, true, nil
	}
	pc, err = l.marginal(ctx, sub)
	return pc, err == nil, err
}

// EachMarginal invokes fn for every materialized marginal index, holding
// the label's marginal lock: fn must not probe the label. Serialization
// uses it to persist the lazily built indexes alongside the PC section.
func (l *Label) EachMarginal(fn func(sub lattice.AttrSet, pc *PC)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for sub, pc := range l.marginals {
		fn(sub, pc)
	}
}

// PutMarginal installs a deserialized marginal index for sub ⊂ S, so a
// reopened label answers those lookups from the persisted index instead of
// re-deriving it.
func (l *Label) PutMarginal(sub lattice.AttrSet, pc *PC) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.marginals[sub] = pc
}

// PC returns the label's pattern-count index.
func (l *Label) PC() *PC { return l.pc }

// VCSize returns |VC|: the number of (attribute, value) count entries.
func (l *Label) VCSize() int { return l.d.VCSize() }

// ValueCount returns c_D({A_a = v}) for value identifier id of attribute a.
func (l *Label) ValueCount(a int, id uint16) int {
	if id == dataset.Null {
		return 0
	}
	return l.vc[a][id-1]
}

// Fraction returns the independence factor of value id of attribute a:
// c_D({A=v}) / Σ_u c_D({A=u}).
func (l *Label) Fraction(a int, id uint16) float64 {
	if id == dataset.Null {
		return 0
	}
	return l.fracs[a][id-1]
}

// EstimateCtx computes Est(p, l) (Definition 2.11): the count of p's
// restriction to S, multiplied by the independence fraction of every
// pattern attribute outside S:
//
//	Est(p, l) = c_D(p|S) · Π_{A ∈ Attr(p) \ S} c_D({A = p.A}) / Σ_v c_D({A = v})
//
// When Attr(p) ⊆ S the estimate is exact (§III-A). When Attr(p) does not
// cover all of S, c_D(p|S∩Attr(p)) is served from a lazily-built marginal
// index. When Attr(p) ∩ S is empty the base count is |D| (the empty pattern
// is satisfied by every tuple) and the estimate degenerates to the pure
// independence estimate of Example 2.6.
//
// The base count may come from a merge-on-read index: a failed run read
// returns the error instead of a wrong estimate. ctx bounds on-demand
// run-file reads and first-use marginal builds behind the base count; a
// fired context returns the typed context error. A nil ctx never cancels.
func (l *Label) EstimateCtx(ctx context.Context, p Pattern) (float64, error) {
	return l.estimateRow(ctx, p.vals, p.attrs)
}

// Estimate is EstimateCtx with a nil ctx for callers that take no error:
// Est(p, l) as the paper's examples use it (Example 2.12). It panics if a
// merge-on-read PC section hits an unrecoverable read fault, because
// returning would mean returning a wrong estimate; callers that may hold
// such a label use EstimateCtx.
func (l *Label) Estimate(p Pattern) float64 {
	return l.EstimateRow(p.vals, p.attrs)
}

// EstimateRow is Estimate on a dense value slice; vals must have one slot
// per dataset attribute and attrs identifies the constrained slots. The
// slice is not retained. It is the Estimator method the error metrics
// score every estimator through, so it panics on a read fault exactly as
// Estimate does.
func (l *Label) EstimateRow(vals []uint16, attrs lattice.AttrSet) float64 {
	est, err := l.estimateRow(nil, vals, attrs)
	if err != nil {
		panic(err.Error())
	}
	return est
}

// estimateRow is the body of EstimateCtx and EstimateRow.
func (l *Label) estimateRow(ctx context.Context, vals []uint16, attrs lattice.AttrSet) (float64, error) {
	inter := attrs.Intersect(l.attrs)
	var base float64
	switch {
	case inter == l.attrs:
		c, err := l.pc.LookupValsCtx(ctx, vals)
		if err != nil {
			return 0, err
		}
		base = float64(c)
	case inter.IsEmpty():
		base = float64(l.rows)
	default:
		m, err := l.marginal(ctx, inter)
		if err != nil {
			return 0, err
		}
		c, err := m.LookupValsCtx(ctx, vals)
		if err != nil {
			return 0, err
		}
		base = float64(c)
	}
	if base == 0 {
		return 0, nil
	}
	return Independence(base, vals, attrs.Diff(l.attrs), l.fracs), nil
}

// Independence returns base times the independence fraction of every
// attribute of outside on which vals holds a value, in ascending attribute
// order: Definition 2.11's product over Attr(p) ∖ S, where fracs[a][id-1]
// is the fraction of value id of attribute a. The label and the search's
// scorer both multiply through it, so their estimates agree bit for bit.
func Independence(base float64, vals []uint16, outside lattice.AttrSet, fracs [][]float64) float64 {
	for rest := uint64(outside); rest != 0; rest &= rest - 1 {
		a := bits.TrailingZeros64(rest)
		if id := vals[a]; id != dataset.Null {
			base *= fracs[a][id-1]
		}
	}
	return base
}

// ReleaseSpill removes the on-disk runs behind any merge-on-read index the
// label holds — the PC section and every lazily built marginal. A no-op
// for fully in-memory labels; callers that discard budgeted labels eagerly
// (the search's evaluation phase keeps only the best candidate) call it so
// temp usage is bounded deterministically rather than by the GC.
func (l *Label) ReleaseSpill() {
	l.pc.ReleaseSpill()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, pc := range l.marginals {
		pc.ReleaseSpill()
	}
}

// marginal returns a PC over sub ⊂ S, building and caching it on first use.
// Marginals are built from the dataset (not by summing the parent PC) so
// that rows that are NULL in S \ sub are still counted, which Definition
// 2.11 requires: c_D(p|S1) counts every tuple satisfying the restricted
// pattern. Artifact-backed labels (fromPC) have no row data to rescan and
// sum the PC section instead — identical on NULL-free data, and marginals
// the building process had already materialized from the dataset are
// persisted and restored verbatim (PutMarginal), so those stay exact
// either way.
//
// Summing a merge-on-read PC section reads run files, and a failed read
// returns the error without caching anything — a later call rebuilds from
// scratch. ctx bounds the build (dataset rescan or PC-section summation);
// a fired context returns the typed context error and likewise caches
// nothing. A nil ctx never cancels.
func (l *Label) marginal(ctx context.Context, sub lattice.AttrSet) (*PC, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if pc, ok := l.marginals[sub]; ok {
		return pc, nil
	}
	var pc *PC
	if l.fromPC {
		// MarginalizeCtx with l.rows, not l.d's: a reopened label's
		// dataset is schema-only and a merged one's holds only the delta,
		// so the marginal gets the representation a build over the
		// label's |D| rows would pick.
		var err error
		pc, err = mergeRekey(ctx, NewKeyer(l.d, sub), l.d.NumAttrs(), l.rows, CountOptions{}, l.pc)
		if err != nil {
			return nil, err
		}
	} else {
		opts := l.copts
		opts.Ctx = ctx
		var err error
		pc, err = BuildPC(l.d, sub, opts)
		if err != nil {
			return nil, err
		}
	}
	l.marginals[sub] = pc
	return pc, nil
}
