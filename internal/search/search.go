// Package search implements the optimal-label computation of paper §III:
// the naive level-wise algorithm and the optimized top-down heuristic
// (Algorithm 1) that traverses the label lattice through the gen operator,
// keeps only maximal in-bound candidates (justified by Proposition 3.2), and
// prunes every subtree rooted at a set whose label already exceeds the size
// bound (sound because label size is monotone in the attribute set).
package search

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
	"pcbl/internal/workpool"
)

// Options configures a label search.
type Options struct {
	// Bound is B_s, the maximum admissible label size |P_S|. Required.
	Bound int
	// FastEval enables the paper's sorted early-termination max-error scan
	// (§IV-C). The pattern set is sorted by count once and reused.
	FastEval bool
	// BranchAndBound aborts a candidate's evaluation as soon as its
	// running max error exceeds the best error found so far. This is an
	// optimization beyond the paper; it never changes the result.
	BranchAndBound bool
	// Workers bounds parallelism in both phases: the enumeration phase
	// shards its fused label-size scans across this many workers (see
	// core.LabelSizes), and the final evaluation phase scores this
	// many candidates concurrently. runtime.NumCPU() when 0, 1 for a
	// single-threaded run. Note that enumeration always sizes frontiers
	// through the fused batch scan (a beyond-paper optimization, result-
	// identical to per-set scanning), so Workers=1 timings are not
	// comparable to the paper's one-scan-per-set cost model.
	//
	// When no attribute set of size ≥ 2 yields an in-bound label, both
	// algorithms fall back to in-bound singletons, and failing that to
	// the empty set (pure independence estimation) — the paper leaves
	// this degenerate case unspecified.
	Workers int

	// DenseLimit overrides the counting engine's dense-kernel threshold
	// for raw dataset scans (core.CountOptions.DenseLimit): 0 means the
	// engine default, a negative value forces scans onto the hash-map
	// kernels. Refinement's compact-space counting is not affected; set
	// DisableRefine as well to reproduce the full pre-dense (PR 1)
	// behaviour. Mainly for benchmarks and differential tests.
	DenseLimit int

	// DisableRefine turns off batched sibling refinement: every frontier
	// is sized by raw fused scans, the pre-refinement engine behaviour.
	// The result is identical either way (refinement is exact); only the
	// work changes.
	DisableRefine bool

	// MemBudget bounds the in-memory grouping state of a single raw
	// group-by in bytes (core.CountOptions.MemBudget): map- and byte-key
	// candidates whose estimated map footprint exceeds it are scheduled
	// onto external spill scans — hash-partitioned on-disk runs (uint64 or
	// byte record format, matching the key encoding) counted K-way in
	// parallel — instead of joining the fused in-memory scan, and budgeted
	// label builds whose result map models over the budget keep their runs
	// and serve lookups merge-on-read. Refinement stays in-memory-only:
	// its compact spaces are bounded by a dense-keyable parent's key space
	// times one attribute domain, so the budget never applies there. Zero
	// means unlimited. Results are identical either way;
	// Stats.Spilled/SpilledU64/SpillRuns/SpillParallelRuns/SpillBytes
	// report the tier's use.
	MemBudget int64

	// SpillDir overrides where spill run files are written (system temp
	// directory when empty). Files live in private subdirectories removed
	// when each scan finishes.
	SpillDir string

	// FS is the filesystem seam spill scans write runs through
	// (core.CountOptions.FS); nil means the real OS filesystem. Fault
	// injection scripts failures here.
	FS iofault.FS

	// DisableSharedSpill turns off the shared-scan spill partitioner
	// (core.CountOptions.DisableSharedSpill): spilled sets in one frontier
	// then partition with one dataset pass each instead of sharing a pass.
	// Result-identical; for ablation.
	DisableSharedSpill bool

	// Ctx cancels the search cooperatively — cancel it or give it a
	// deadline to bound a runaway search. Both phases poll it: enumeration
	// at row-block granularity inside fused sizing scans and refinement
	// passes, evaluation between candidate labels and at block granularity
	// inside each label build. A fired
	// context abandons the search, releases every spill-backed label
	// already built (no temp files survive), and returns the typed context
	// error (context.Canceled or context.DeadlineExceeded). Nil means the
	// search never cancels.
	Ctx context.Context
}

// countOptions lowers the search options onto the counting engine for
// raw sizing scans and label builds. Refinement passes set their own
// narrower options: they ignore DenseLimit and MemBudget by design.
func (o Options) countOptions() core.CountOptions {
	return core.CountOptions{
		Workers:            o.Workers,
		DenseLimit:         o.DenseLimit,
		MemBudget:          o.MemBudget,
		SpillDir:           o.SpillDir,
		FS:                 o.FS,
		DisableSharedSpill: o.DisableSharedSpill,
		Ctx:                o.Ctx,
	}
}

// ctxErr reports a fired search context; nil ctx never fires.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// fusedBatch bounds how many candidate sets one fused scan tracks at once,
// keeping per-worker frontier memory at fusedBatch × (Bound+1) set entries
// while still amortizing column access across the whole batch.
const fusedBatch = 256

// Stats reports the work a search performed; Fig 6–9 of the paper are
// plotted from these counters and timings.
type Stats struct {
	// SizeComputed is the number of attribute sets whose label size was
	// computed (every set the algorithm "examined").
	SizeComputed int
	// InBound is the number of examined sets whose label fit the bound
	// ("# cands generated" for the optimized heuristic in Fig 9).
	InBound int
	// Evaluated is the number of candidate labels whose error was
	// computed in the final phase.
	Evaluated int
	// PatternsScanned is the total number of (label, pattern) estimate
	// evaluations across the final phase; early termination keeps it far
	// below Evaluated × |P|.
	PatternsScanned int64
	// RefinedSets counts examined sets sized by batched sibling
	// refinement instead of a raw scan.
	RefinedSets int
	// ScannedSets counts examined sets sized by raw fused dataset scans —
	// sets whose gen parent or own key space is not dense-keyable, or
	// every set when refinement is off.
	ScannedSets int
	// BatchRefines counts batched sibling-refinement passes: each sized a
	// whole batch of same-parent candidates in one blocked pass over the
	// parent's dense keys (core.RefineSizes).
	BatchRefines int
	// PoolHits and PoolMisses report the slab pool's cumulative counters:
	// how often a count slab or key-block scratch was recycled from the
	// arena versus freshly allocated.
	PoolHits, PoolMisses int64
	// ScanStats meters the raw-scanned sets (refined sets never reach the
	// counting kernels): which kernel each went to — Dense, Map, Bytes,
	// Spilled (SpilledU64 of them with uint64 records) — and the spill
	// tier's runs, bytes, fallbacks and shared partition passes. All zero
	// spill counters mean a fully in-memory run.
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

// schedulerPoolBudget bounds the free slabs the frontier scheduler's pool
// retains between sizing passes.
const schedulerPoolBudget int64 = 256 << 20

// sibBatch is one batched refinement unit: all same-level candidates that
// extend the same dense-keyable gen parent by one attribute.
// core.RefineSizes streams the parent's dense keys blockwise and sizes
// every sibling in one pass.
type sibBatch struct {
	parent lattice.AttrSet
	lo, hi int // half-open range into the level's batchIdx/batchAttrs
}

// levelSizer is the frontier scheduler of the enumeration phase. Each
// candidate set goes down exactly one of two paths:
//
//   - batched sibling refinement, when its gen parent is dense-keyable and
//     the candidate stays dense-keyable: the level's candidates are grouped
//     by gen parent, and one core.RefineSizes pass per parent sizes them
//     all without any per-set allocation beyond pooled compact-space slabs;
//   - the fused raw scan (core.LabelSizes) otherwise, which also
//     routes over-budget sets onto the spill tier.
//
// All scratch cycles through one slab pool, so steady-state sizing
// allocates a near-constant working set. Routing happens in deterministic
// slice order; results and counters are identical for all worker counts.
type levelSizer struct {
	d     *dataset.Dataset
	opts  Options
	stats *Stats
	pool  *core.VecPool

	within     []bool // per-candidate verdict of the level being sized
	batches    []sibBatch
	batchIdx   []int // candidate index per batched child
	batchAttrs []int // added attribute per batched child
	scanSets   []lattice.AttrSet
	scanIdx    []int
}

func newLevelSizer(d *dataset.Dataset, opts Options, stats *Stats) *levelSizer {
	return &levelSizer{d: d, opts: opts, stats: stats, pool: core.NewVecPool(schedulerPoolBudget)}
}

// sizeLevel sizes one slice of same-level candidate sets, invoking visit
// for each in input order with its in-bound verdict. A fired Options.Ctx
// aborts the level and returns the typed context error; no verdicts are
// visited for a cancelled level.
func (z *levelSizer) sizeLevel(sets []lattice.AttrSet, visit func(s lattice.AttrSet, within bool)) error {
	if len(sets) == 0 {
		return nil
	}
	if cap(z.within) < len(sets) {
		z.within = make([]bool, len(sets))
	}
	z.within = z.within[:len(sets)]
	z.batches = z.batches[:0]
	z.batchIdx = z.batchIdx[:0]
	z.batchAttrs = z.batchAttrs[:0]
	z.scanSets = z.scanSets[:0]
	z.scanIdx = z.scanIdx[:0]

	// Route every candidate. Children of one gen parent are consecutive in
	// both traversals, so grouping them into sibling batches is a
	// run-length pass.
	var parent lattice.AttrSet
	var radix int
	known, dense, open := false, false, false
	for i, s := range sets {
		if !z.opts.DisableRefine && !s.IsEmpty() {
			max := s.MaxIndex()
			if p := s.Remove(max); !known || p != parent {
				parent, known, open = p, true, false
				radix, dense = core.DenseKeyable(z.d, p)
			}
			if dense && core.DenseExtendable(z.d, radix, max) {
				if !open {
					z.batches = append(z.batches, sibBatch{parent: parent, lo: len(z.batchIdx)})
					open = true
				}
				z.batchIdx = append(z.batchIdx, i)
				z.batchAttrs = append(z.batchAttrs, max)
				z.batches[len(z.batches)-1].hi = len(z.batchIdx)
				continue
			}
		}
		z.scanIdx = append(z.scanIdx, i)
		z.scanSets = append(z.scanSets, s)
	}

	if err := z.runBatches(); err != nil {
		return err
	}

	// Raw-scan path for candidates off the batched tier. Spilled
	// candidates (map- and byte-key sets over the memory budget) are
	// routed inside the fused sizing call onto external spill scans.
	co := z.opts.countOptions()
	co.Stats, co.Pool = &z.stats.ScanStats, z.pool
	for lo := 0; lo < len(z.scanSets); lo += fusedBatch {
		hi := min(lo+fusedBatch, len(z.scanSets))
		_, within, err := core.LabelSizes(z.d, z.scanSets[lo:hi], z.opts.Bound, co)
		if err != nil {
			return err
		}
		for j, ok := range within {
			z.within[z.scanIdx[lo+j]] = ok
		}
	}

	z.stats.RefinedSets += len(z.batchIdx)
	z.stats.ScannedSets += len(z.scanSets)
	z.stats.BatchRefines += len(z.batches)
	z.stats.PoolHits, z.stats.PoolMisses = z.pool.Stats()
	for i, s := range sets {
		z.stats.SizeComputed++
		if z.within[i] {
			z.stats.InBound++
		}
		visit(s, z.within[i])
	}
	return nil
}

// runBatches executes the batched tier: one core.RefineSizes pass per
// sibling batch, dispatched across workers — batches run concurrently
// when the level has many, and a lone batch shards its rows instead.
func (z *levelSizer) runBatches() error {
	nb := len(z.batches)
	if nb == 0 {
		return nil
	}
	eff := workpool.Resolve(z.opts.Workers, 1<<30)
	outer := min(nb, eff)
	inner := 1
	if outer < eff {
		inner = eff / outer
	}
	errs := make([]error, nb)
	workpool.Do(nb, outer, func(bi int) {
		b := z.batches[bi]
		co := core.CountOptions{Workers: inner, Pool: z.pool, Ctx: z.opts.Ctx}
		_, within, err := core.RefineSizes(z.d, b.parent, z.batchAttrs[b.lo:b.hi], z.opts.Bound, co)
		if err != nil {
			errs[bi] = err
			return
		}
		for k, ok := range within {
			z.within[z.batchIdx[b.lo+k]] = ok
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Naive finds the optimal label by level-wise enumeration (paper §III):
// subsets of size 2, 3, … are generated with their label sizes; every
// in-bound subset's label error is evaluated; enumeration stops at the first
// level where no subset fits the bound (label sizes are monotone, so deeper
// levels cannot fit either). Each level is sized with fused batch scans
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
		// The whole level goes to the sizer in one call (as TopDown's
		// frontier does): sizeLevel groups sibling batches and batches its
		// raw scans internally.
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
	return finish(d, ps, cands, opts, stats)
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
	list, stats, err := enumerateTopDown(d, opts)
	if err != nil {
		return nil, err
	}
	stats.SearchTime = time.Since(start)
	return finish(d, ps, list, opts, stats)
}

// enumerateTopDown runs Algorithm 1's enumeration phase: the level-wise
// Gen traversal with subtree pruning, sized through the frontier
// scheduler. It returns the maximal in-bound candidate sets (unsorted) and
// the enumeration counters.
func enumerateTopDown(d *dataset.Dataset, opts Options) ([]lattice.AttrSet, Stats, error) {
	n := d.NumAttrs()
	var stats Stats
	sizer := newLevelSizer(d, opts, &stats)
	// The BFS queue is processed one lattice level at a time so the whole
	// frontier's children can be sized in fused batch scans. Gen generates
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
			return nil, stats, err
		}
	}
	list := make([]lattice.AttrSet, 0, len(cands))
	for s := range cands {
		list = append(list, s)
	}
	return list, stats, nil
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
	list, stats, err := enumerateTopDown(d, opts)
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
// candidate of size ≥ 2 exists it falls back to in-bound singletons, then to
// the empty set (pure independence estimation).
func finish(d *dataset.Dataset, ps *core.PatternSet, cands []lattice.AttrSet, opts Options, stats Stats) (*Result, error) {
	if len(cands) == 0 {
		for i := 0; i < d.NumAttrs(); i++ {
			s := lattice.NewAttrSet(i)
			stats.SizeComputed++
			_, within, err := core.LabelSize(d, s, opts.Bound, core.CountOptions{Workers: 1})
			if err != nil {
				return nil, err
			}
			if within {
				stats.InBound++
				cands = append(cands, s)
			}
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
		idx     int
		attrs   lattice.AttrSet
		label   *core.Label
		maxErr  float64
		scanned int
		exact   bool // false when branch-and-bound cut the scan short
	}
	results := make([]scored, len(cands))

	var best struct {
		sync.Mutex
		err float64
		ok  bool
	}
	cutoff := func() float64 {
		if !opts.BranchAndBound {
			return 0
		}
		best.Lock()
		defer best.Unlock()
		if !best.ok {
			return 0
		}
		return best.err
	}
	offer := func(e float64) {
		best.Lock()
		if !best.ok || e < best.err {
			best.err, best.ok = e, true
		}
		best.Unlock()
	}

	// Each candidate's label build runs single-threaded when candidates
	// themselves are scored concurrently; a lone candidate gets the whole
	// engine instead.
	co := opts.countOptions()
	if len(cands) > 1 {
		co.Workers = 1
	}
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
		s := cands[i]
		l, err := core.BuildLabel(d, s, co)
		if err != nil {
			fail(err)
			return
		}
		mo := core.MaxErrOptions{
			Sorted:    opts.FastEval,
			StopAbove: cutoff(),
			Workers:   1,
		}
		maxErr, scanned := core.MaxAbsError(l, ps, mo)
		exact := mo.StopAbove <= 0 || maxErr <= mo.StopAbove
		if exact {
			offer(maxErr)
		}
		results[i] = scored{i, s, l, maxErr, scanned, exact}
	})
	if failErr == nil {
		failErr = ctxErr(opts.Ctx)
	}
	if failErr != nil {
		// A cancelled evaluation keeps nothing: labels already built may
		// hold merge-on-read spill runs on disk — release them before
		// surfacing the typed error so no temp files outlive the search.
		for i := range results {
			if results[i].label != nil {
				results[i].label.ReleaseSpill()
			}
		}
		return nil, failErr
	}

	bestIdx := -1
	for i, r := range results {
		stats.Evaluated++
		stats.PatternsScanned += int64(r.scanned)
		if !r.exact {
			continue // provably worse than the best exact candidate
		}
		if bestIdx < 0 || r.maxErr < results[bestIdx].maxErr {
			bestIdx = i
		}
	}
	if bestIdx < 0 { // all cut off: re-evaluate the first exactly
		results[0].label.ReleaseSpill() // replaced below
		l, err := core.BuildLabel(d, cands[0], co)
		if err != nil {
			for i := 1; i < len(results); i++ {
				results[i].label.ReleaseSpill()
			}
			return nil, err
		}
		maxErr, scanned := core.MaxAbsError(l, ps, core.MaxErrOptions{Sorted: opts.FastEval, Workers: 1})
		results[0] = scored{0, cands[0], l, maxErr, scanned, true}
		stats.PatternsScanned += int64(scanned)
		bestIdx = 0
	}
	// Only the winning label survives; under a memory budget the losers may
	// hold merge-on-read spill runs on disk — drop those eagerly instead of
	// waiting for the GC.
	for i := range results {
		if i != bestIdx {
			results[i].label.ReleaseSpill()
		}
	}
	stats.EvalTime = time.Since(evalStart)

	r := results[bestIdx]
	return &Result{
		Attrs:  r.attrs,
		Label:  r.label,
		MaxErr: r.maxErr,
		Size:   r.label.Size(),
		Stats:  stats,
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
	co := opts.countOptions()
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

// SortSets sorts attribute sets deterministically (by size then value); it
// re-exports the lattice helper for callers assembling Fig 10 style reports.
func SortSets(sets []lattice.AttrSet) { lattice.SortAttrSets(sets) }
