// Package search implements the optimal-label computation of paper §III:
// the naive level-wise algorithm and the optimized top-down heuristic
// (Algorithm 1) that traverses the label lattice through the gen operator,
// keeps only maximal in-bound candidates (justified by Proposition 3.2), and
// prunes every subtree rooted at a set whose label already exceeds the size
// bound. The pruning is sound on NULL-free data, where label size is
// monotone in the attribute set. With NULLs it is not: a row NULL in an
// added attribute leaves the grouping, so an in-bound superset of an
// out-of-bound set can exist, and both algorithms may miss it.
//
// Two beyond-paper optimizations leave every result as the paper's
// algorithms give it. Enumeration proves an examined set in bound from the
// label sizes it already knows, and scans only the sets no bound decides
// (Stats.Proved). Evaluation scores every candidate through one row index
// of the dataset, bit for bit as the candidate's label would, and builds
// only the winner's label (Stats.LabelsBuilt).
//
// A candidate's error scan stops early only by the paper's sorted count
// bound (Options.FastEval, §IV-C), and a search stops early only by its
// context (Options.Ctx).
package search

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/workpool"
)

// Options configures a label search. The embedded core.CountOptions
// configure the counting engine every sizing scan and label build runs on,
// with a search's meaning for three of them:
//
//   - Workers bounds parallelism in both phases: the enumeration phase
//     sizes each level's sibling groups and their row shards on this many
//     workers (see core.LabelSizes), and the final evaluation phase scores
//     this many candidates concurrently, then builds the winner's label on
//     all of them. runtime.NumCPU() when 0, 1 for a single-threaded run.
//     Enumeration proves most in-bound verdicts with no scan and sizes
//     each sibling group off one pass over its gen parent's keys, and
//     evaluation scores candidates without building their labels
//     (beyond-paper optimizations, result-identical to per-set scanning
//     and per-candidate labels), so Workers=1 timings are not comparable
//     to the paper's cost model.
//   - MemBudget: enumeration sizes every candidate with cap Bound, so a
//     candidate's sizing state is at most Bound + 1 keys; it stays in its
//     sibling group unless even those model over the budget, and is then
//     sized on the spill tier, counted for its distinct total and stopped
//     once that passes Bound. The evaluation phase's row index counts
//     against the budget too: when it would not fit, no index is built and
//     every candidate is scored from its own label. Budgeted label builds
//     (the winner's, and any a scorer switches to) spill as BuildPC does.
//     Results are identical either way; Stats.Spilled, SpillRuns,
//     SpillParallelRuns and SpillBytes report the tier's use in sizing.
//   - Ctx cancels the search cooperatively, and is its one deadline
//     input (context.WithTimeout). Both phases poll it:
//     enumeration at row-block granularity inside each level's sizing,
//     evaluation between candidates and at block granularity inside each
//     label build (a scorer's switch to its label, and the winner's). A
//     fired context abandons the search, releases every spill-backed label
//     already built (no temp files survive), and returns the typed context
//     error. Nil means the search never cancels.
//
// The search sets the engine's Stats and Pool itself: values a caller sets
// in them are ignored, and the search's counters are in Result.Stats.
//
// When no attribute set of size ≥ 2 yields an in-bound label, both
// algorithms fall back to in-bound singletons, and failing that to the
// empty set (pure independence estimation) — the paper leaves this
// degenerate case unspecified.
type Options struct {
	// Bound is B_s, the maximum admissible label size |P_S|. Required.
	Bound int
	// FastEval enables the paper's sorted early-termination max-error scan
	// (§IV-C), the one early stop of a candidate's scan. The pattern set
	// is sorted by count once and reused. Without it every candidate is
	// scored over all of P.
	FastEval bool

	core.CountOptions

	// Test hooks, set only by this package's tests. noProofs sizes every
	// examined set through the kernel; noIndex builds no row index, so
	// every scorer starts from its label; switchAt, when nonzero, replaces
	// a scorer's switch threshold (see switchWords), and a negative value
	// switches before the first estimate.
	noProofs, noIndex bool
	switchAt          int64
}

// ctxErr reports a fired search context; nil ctx never fires.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Stats reports the work a search performed; Fig 6–9 of the paper are
// plotted from these counters and timings.
type Stats struct {
	// SizeComputed is the number of attribute sets whose in-bound verdict
	// was decided (every set the algorithm "examined", which Fig 9
	// plots): the Proved sets plus the sets the sizing kernel scanned
	// (ScanStats.Dense + Map + Wide + Spilled).
	SizeComputed int
	// Proved counts the examined sets proved in bound without a scan. The
	// search keeps an upper bound u(S) on the label size of ∅ (min(|D|,
	// 1)), of every singleton (its count of occurring values) and of every
	// set it found in bound (its exact size when scanned, its proof's
	// bound when proved). A set c with min over b ∈ c of u(c∖b)·u({b}) ≤
	// Bound is in bound: every pattern of c extends an occurring pattern
	// of c∖b by one occurring value of b, NULLs included.
	Proved int
	// InBound is the number of examined sets whose label fit the bound
	// ("# cands generated" for the optimized heuristic in Fig 9).
	InBound int
	// Evaluated is the number of candidates whose error was computed in
	// the final phase.
	Evaluated int
	// PatternsScanned is the total number of (candidate, pattern) estimate
	// evaluations across the final phase; FastEval's early termination
	// keeps it far below Evaluated × |P|. No candidate's scan depends on
	// another's, so it is the same at every worker count.
	PatternsScanned int64
	// LabelsBuilt counts the labels the final phase built: the winner's,
	// plus every label a scorer switched to once its row-index work
	// passed a row scan's worth (or from its first estimate, when the
	// search has no row index). Candidates are scored through the index
	// otherwise, so with FastEval this is usually 1.
	LabelsBuilt int
	// RefinedSets counts examined sets the sizing kernel sized from their
	// gen parent's shared key block: every scanned set counted in memory
	// on one-word keys (ScanStats.Dense + Map). Proved sets are not
	// scanned, and sets of wider keys and spilled sets are not sized from
	// a key block.
	RefinedSets int
	// PoolHits and PoolMisses report the slab pool's cumulative counters:
	// how often a count slab or key-block scratch was recycled from the
	// arena versus freshly allocated.
	PoolHits, PoolMisses int64
	// ScanStats meters the sizing of every examined set: which kernel each
	// went to — Dense, Map, Wide (keys of more than one word), Spilled — and
	// the spill tier's runs, bytes and fallbacks. All zero spill counters
	// mean a fully in-memory run.
	core.ScanStats
	// SearchTime covers candidate enumeration (label-size computation).
	SearchTime time.Duration
	// EvalTime covers the find-best-candidate phase (paper §IV-C reports
	// its share of total runtime).
	EvalTime time.Duration
}

// Total returns the end-to-end search duration.
func (s Stats) Total() time.Duration { return s.SearchTime + s.EvalTime }

// Result is the outcome of a label search.
type Result struct {
	// Attrs is the chosen attribute set S.
	Attrs lattice.AttrSet
	// Label is L_S(D).
	Label *core.Label
	// MaxErr is Err(L_S(D), P).
	MaxErr float64
	// Size is |P_S|.
	Size int
	// Stats describes the work performed.
	Stats Stats
}

// schedulerPoolBudget bounds the free slabs the level sizer's pool retains
// between levels.
const schedulerPoolBudget int64 = 256 << 20

// levelSizer sizes the enumeration phase one lattice level at a time.
// Each level first takes the in-bound verdicts a bound already proves
// (Stats.Proved): bound holds u(S), an upper bound on |P_S|, for ∅, every
// singleton and every set found in bound so far. The sets no bound decides
// go to the level's one core.LabelSizes call, which groups them by gen
// parent and sizes any set still over budget at the cap on the spill tier.
// One slab pool serves every level, so steady-state sizing allocates a
// near-constant working set.
type levelSizer struct {
	d     *dataset.Dataset
	opts  Options
	stats *Stats
	pool  *core.VecPool
	bound map[lattice.AttrSet]int
	dom   []int // dom[b] = u({b}) = |dom_D(b)|

	// Per-level scratch: proof[i] is the proved bound of the level's set
	// i, or -1 when the scan decides it; scan lists those sets.
	proof []int
	scan  []lattice.AttrSet
}

func newLevelSizer(d *dataset.Dataset, opts Options, stats *Stats) *levelSizer {
	z := &levelSizer{
		d: d, opts: opts, stats: stats,
		pool:  core.NewVecPool(schedulerPoolBudget),
		bound: map[lattice.AttrSet]int{0: min(d.NumRows(), 1)},
		dom:   make([]int, d.NumAttrs()),
	}
	vc, _ := d.VCTable()
	for b, counts := range vc {
		for _, c := range counts {
			if c > 0 {
				z.dom[b]++
			}
		}
		z.bound[lattice.NewAttrSet(b)] = z.dom[b]
	}
	return z
}

// prove returns the least bound on |P_s| the known bounds give — the
// minimum over b ∈ s of u(s∖b)·u({b}), saturating — or -1 when no s∖b has
// a known bound.
func (z *levelSizer) prove(s lattice.AttrSet) int {
	if z.opts.noProofs {
		return -1
	}
	best := -1
	for rest := uint64(s); rest != 0; rest &= rest - 1 {
		b := bits.TrailingZeros64(rest)
		u, ok := z.bound[s.Remove(b)]
		if !ok {
			continue
		}
		if u > 0 && z.dom[b] > math.MaxInt/u {
			u = math.MaxInt
		} else {
			u *= z.dom[b]
		}
		if best < 0 || u < best {
			best = u
		}
	}
	return best
}

// sizeLevel decides one slice of same-level candidate sets, invoking visit
// for each in input order with its in-bound verdict. A fired Options.Ctx
// aborts the level and returns the typed context error; no verdicts are
// visited for a cancelled level.
func (z *levelSizer) sizeLevel(sets []lattice.AttrSet, visit func(s lattice.AttrSet, within bool)) error {
	if len(sets) == 0 {
		return nil
	}
	z.proof, z.scan = z.proof[:0], z.scan[:0]
	for _, s := range sets {
		u := z.prove(s)
		if u < 0 || u > z.opts.Bound {
			u = -1
			z.scan = append(z.scan, s)
		}
		z.proof = append(z.proof, u)
	}
	var sizes []int
	var within []bool
	if len(z.scan) > 0 {
		co := z.opts.CountOptions
		co.Stats, co.Pool = &z.stats.ScanStats, z.pool
		var err error
		if sizes, within, err = core.LabelSizes(z.d, z.scan, z.opts.Bound, co); err != nil {
			return err
		}
		z.stats.RefinedSets = z.stats.Dense + z.stats.Map
		z.stats.PoolHits, z.stats.PoolMisses = z.pool.Stats()
	}
	j := 0
	for i, s := range sets {
		in, u := true, z.proof[i]
		if u >= 0 {
			z.stats.Proved++
		} else {
			in, u = within[j], sizes[j]
			j++
		}
		z.stats.SizeComputed++
		if in {
			z.stats.InBound++
			z.bound[s] = u
		}
		visit(s, in)
	}
	return nil
}

// Naive finds the optimal label by level-wise enumeration (paper §III):
// subsets of size 2, 3, … are generated with their label sizes; every
// in-bound subset's label error is evaluated; enumeration stops at the first
// level where no subset fits the bound (on NULL-free data label sizes are
// monotone, so deeper levels cannot fit either; with NULLs they can, and
// are not examined). Each level is sized in one core.LabelSizes call
// rather than one dataset scan per subset.
func Naive(d *dataset.Dataset, ps *core.PatternSet, opts Options) (*Result, error) {
	if err := checkOptions(d, opts); err != nil {
		return nil, err
	}
	start := time.Now()
	n := d.NumAttrs()
	var stats Stats
	var cands []lattice.AttrSet
	sizer := newLevelSizer(d, opts, &stats)
	var level []lattice.AttrSet // hoisted: reused across levels
	for k := 2; k <= n; k++ {
		level = level[:0]
		lattice.Combinations(n, k, func(s lattice.AttrSet) bool {
			level = append(level, s)
			return true
		})
		levelHit := false
		if err := sizer.sizeLevel(level, func(s lattice.AttrSet, within bool) {
			if within {
				levelHit = true
				cands = append(cands, s)
			}
		}); err != nil {
			return nil, err
		}
		if !levelHit {
			break
		}
	}
	stats.SearchTime = time.Since(start)
	return finish(sizer, ps, cands)
}

// TopDown is Algorithm 1: a breadth-first traversal of the label lattice
// through the gen operator. Children of in-bound sets are generated exactly
// once; sets whose label exceeds the bound are pruned together with their
// entire gen-subtree; the candidate list keeps only maximal in-bound sets
// (adding a child evicts its direct parents), since by Proposition 3.2 a
// superset's label is expected to estimate at least as well.
func TopDown(d *dataset.Dataset, ps *core.PatternSet, opts Options) (*Result, error) {
	if err := checkOptions(d, opts); err != nil {
		return nil, err
	}
	start := time.Now()
	var stats Stats
	sizer := newLevelSizer(d, opts, &stats)
	list, err := enumerateTopDown(sizer)
	if err != nil {
		return nil, err
	}
	stats.SearchTime = time.Since(start)
	return finish(sizer, ps, list)
}

// enumerateTopDown runs Algorithm 1's enumeration phase: the level-wise
// Gen traversal with subtree pruning, sized level by level. It returns the
// maximal in-bound candidate sets (unsorted); the enumeration counters
// accumulate in the sizer's stats.
func enumerateTopDown(sizer *levelSizer) ([]lattice.AttrSet, error) {
	n := sizer.d.NumAttrs()
	// The BFS queue is processed one lattice level at a time so the whole
	// frontier's children can be sized in one call. Gen generates
	// each lattice node exactly once across the traversal (Proposition
	// 3.8), so the concatenated child lists never repeat a set and the
	// level-wise order visits exactly the sets the per-node BFS visited.
	frontier := lattice.AttrSet(0).Gen(n) // the attribute singletons
	cands := make(map[lattice.AttrSet]struct{})
	var children []lattice.AttrSet // hoisted: reused across levels
	for len(frontier) > 0 {
		children = children[:0]
		for _, s := range frontier {
			children = append(children, s.Gen(n)...)
		}
		frontier = frontier[:0]
		if err := sizer.sizeLevel(children, func(c lattice.AttrSet, within bool) {
			if !within {
				return // prune c's entire gen-subtree
			}
			frontier = append(frontier, c)
			// removeParents(cands, c): keep the candidate list an
			// antichain of maximal in-bound sets.
			for _, p := range c.Parents() {
				delete(cands, p)
			}
			cands[c] = struct{}{}
		}); err != nil {
			return nil, err
		}
	}
	list := make([]lattice.AttrSet, 0, len(cands))
	for s := range cands {
		list = append(list, s)
	}
	return list, nil
}

// Enumerate runs only the candidate-enumeration phase of the top-down
// search — frontier sizing across every lattice level, no label
// evaluation — and returns the maximal in-bound candidate sets in
// deterministic order with the work counters. Benchmarks and workload
// profiling use it to measure the sizing engine in isolation.
func Enumerate(d *dataset.Dataset, opts Options) ([]lattice.AttrSet, Stats, error) {
	if err := checkOptions(d, opts); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	var stats Stats
	list, err := enumerateTopDown(newLevelSizer(d, opts, &stats))
	if err != nil {
		return nil, stats, err
	}
	stats.SearchTime = time.Since(start)
	lattice.SortAttrSets(list)
	return list, stats, nil
}

func checkOptions(d *dataset.Dataset, opts Options) error {
	if opts.Bound <= 0 {
		return fmt.Errorf("search: bound must be positive, got %d", opts.Bound)
	}
	if d.NumAttrs() > lattice.MaxAttrs {
		return fmt.Errorf("search: dataset has %d attributes, max %d", d.NumAttrs(), lattice.MaxAttrs)
	}
	return nil
}

// finish evaluates every candidate set and returns the best label. When no
// candidate of size ≥ 2 exists it falls back to in-bound singletons —
// decided by the same sizer, as the sibling group under ∅ — then to the
// empty set (pure independence estimation). Candidates are scored through
// one row index of the dataset (a scorer each, see scorer) and only the
// winner's label is built, unless its scorer already switched to it.
func finish(sizer *levelSizer, ps *core.PatternSet, cands []lattice.AttrSet) (*Result, error) {
	d, opts, stats := sizer.d, sizer.opts, sizer.stats
	if len(cands) == 0 {
		if err := sizer.sizeLevel(lattice.AttrSet(0).Gen(d.NumAttrs()), func(s lattice.AttrSet, within bool) {
			if within {
				cands = append(cands, s)
			}
		}); err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			cands = append(cands, lattice.AttrSet(0))
		}
	}
	lattice.SortAttrSets(cands)
	if opts.FastEval {
		ps.SortByCountDesc()
	}

	evalStart := time.Now()

	type scored struct {
		sc      *scorer
		maxErr  float64
		scanned int
	}
	results := make([]scored, len(cands))

	// The labels the search builds run on its engine options, without its
	// sizing stats and pool. A scorer's switch builds single-threaded when
	// candidates themselves are scored concurrently; the winner gets the
	// whole engine. A lone candidate wins, so it is scored from its label
	// on the whole engine, with no index.
	co := opts.CountOptions
	co.Stats, co.Pool = nil, nil
	scoreCO, ix := co, (*rowIndex)(nil)
	if len(cands) > 1 {
		scoreCO.Workers = 1
		ix = newRowIndex(d, opts)
	}
	limit := switchWords(d.NumRows(), opts)
	var failMu sync.Mutex
	var failErr error
	fail := func(err error) {
		failMu.Lock()
		if failErr == nil {
			failErr = err
		}
		failMu.Unlock()
	}
	workpool.DoCtx(opts.Ctx, len(cands), opts.Workers, func(i int) {
		sc := newScorer(ix, d, cands[i], limit, scoreCO)
		results[i].sc = sc
		maxErr, scanned := core.MaxAbsError(sc, ps, core.MaxErrOptions{Sorted: opts.FastEval, Workers: 1})
		if err := sc.failed(); err != nil {
			fail(err)
			return
		}
		results[i] = scored{sc, maxErr, scanned}
	})
	if failErr == nil {
		failErr = ctxErr(opts.Ctx)
	}
	if failErr != nil {
		// A cancelled evaluation keeps nothing: labels already built may
		// hold merge-on-read spill runs on disk — release them before
		// surfacing the typed error so no temp files outlive the search.
		for _, r := range results {
			if r.sc != nil {
				if l := r.sc.label.Load(); l != nil {
					l.ReleaseSpill()
				}
			}
		}
		return nil, failErr
	}

	bestIdx := 0
	for i, r := range results {
		stats.Evaluated++
		stats.PatternsScanned += int64(r.scanned)
		if r.maxErr < results[bestIdx].maxErr {
			bestIdx = i
		}
	}
	// Only the winning label survives; under a memory budget a loser's
	// switched label may hold merge-on-read spill runs on disk — drop
	// those eagerly instead of waiting for the GC.
	for i, r := range results {
		if l := r.sc.label.Load(); l != nil {
			stats.LabelsBuilt++
			if i != bestIdx {
				l.ReleaseSpill()
			}
		}
	}
	r := results[bestIdx]
	l := r.sc.label.Load()
	if l == nil {
		var err error
		if l, err = core.BuildLabel(d, r.sc.attrs, co); err != nil {
			return nil, err
		}
		stats.LabelsBuilt++
	}
	stats.EvalTime = time.Since(evalStart)

	return &Result{
		Attrs:  r.sc.attrs,
		Label:  l,
		MaxErr: r.maxErr,
		Size:   l.Size(),
		Stats:  *stats,
	}, nil
}

// EvaluateSets scores an explicit list of attribute sets and returns them
// ordered as given, with their label sizes and max errors. Fig 10 (optimal
// label vs drop-one sub-labels) is produced from this helper. A fired
// Options.Ctx abandons the evaluation, releases every label already built
// and returns the typed context error.
func EvaluateSets(d *dataset.Dataset, ps *core.PatternSet, sets []lattice.AttrSet, opts Options) ([]Result, error) {
	if opts.FastEval {
		ps.SortByCountDesc()
	}
	out := make([]Result, len(sets))
	co := opts.CountOptions
	co.Stats, co.Pool = nil, nil
	for i, s := range sets {
		l, err := core.BuildLabel(d, s, co)
		if err != nil {
			for _, r := range out[:i] {
				r.Label.ReleaseSpill()
			}
			return nil, err
		}
		maxErr, scanned := core.MaxAbsError(l, ps, core.MaxErrOptions{Sorted: opts.FastEval, Workers: opts.Workers})
		out[i] = Result{
			Attrs:  s,
			Label:  l,
			MaxErr: maxErr,
			Size:   l.Size(),
			Stats:  Stats{Evaluated: 1, PatternsScanned: int64(scanned)},
		}
	}
	return out, nil
}
