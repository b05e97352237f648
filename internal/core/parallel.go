package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync/atomic"

	"pcbl/internal/dataset"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
	"pcbl/internal/workpool"
)

// The counting engine: sharded parallel group-by and grouped frontier
// sizing. A dataset scan is split into contiguous row chunks, one per
// worker; each worker fills private state with the shared read-only Keyer
// and the shards are merged afterwards, so the hot row loops run without
// any synchronization. Every entry point is differentially tested against
// the sequential paths (parallel_test.go): results are bit-identical for
// every worker count, including the cap-abort behaviour of label sizing.

// defaultMinRowsPerWorker is the smallest per-worker chunk worth a
// goroutine: below it, map-merge and scheduling overhead exceeds the scan
// itself and the engine falls back to the sequential path.
const defaultMinRowsPerWorker = 2048

// CountOptions configures the sharded counting engine.
type CountOptions struct {
	// Workers bounds scan parallelism: 0 means runtime.NumCPU(), 1 forces
	// the sequential path. The engine additionally clamps the worker count
	// so each worker scans at least a few thousand rows; tiny datasets are
	// always counted sequentially.
	Workers int

	// Stats, when non-nil, accumulates which kernel each scanned set was
	// routed to. Counters are bumped during single-threaded planning, so a
	// shared ScanStats needs no synchronization across scans issued from
	// the same goroutine.
	Stats *ScanStats

	// Pool, when non-nil, supplies the engine's flat slabs — dense count
	// arrays, per-worker shard slabs, key-block scratch — from a recycled
	// free-list arena instead of fresh allocations, and receives the
	// transient ones back when a scan completes. Results never retain
	// pooled memory. A nil pool means plain allocation; behaviour is
	// identical either way.
	Pool *VecPool

	// MemBudget, when positive, bounds the estimated in-memory grouping
	// state of a single group-by in bytes. A BuildPC of a set beyond the
	// dense tier, whatever its key width, whose modeled map footprint
	// exceeds the budget runs on the external-memory spill tier
	// (spillcount.go): keys hash-partition into on-disk runs of the run
	// codec, each flush of a worker's buffer sorted with equal keys
	// summed, and the runs are sized so one run's count state fits each
	// counting worker's share of the budget; the key-disjoint runs are
	// counted K-way in parallel, each by sorting it within that share.
	// Budgeted builds are bounded end to end: a result that models over
	// the budget is not materialized — the PC keeps sorted runs and
	// serves lookups merge-on-read. LabelSizes prices a capped set by
	// the cap+1 keys its accumulator can reach, so a capped set spills only
	// when even those are over budget; it is then partitioned as a build
	// would be and its runs counted for their distinct total alone, with
	// the cap-abort and no sorted run written. Results are bit-identical
	// to the in-memory kernels.
	// Zero means unlimited (never spill). The dense kernel is not governed
	// by this knob: its state is bounded by the dense slot limit the
	// selection rules already cap.
	MemBudget int64

	// SpillDir overrides where spill run files are written; empty means
	// the system temp directory. Run files live in a private subdirectory
	// that is removed when the scan finishes — on success, error and panic
	// alike.
	SpillDir string

	// FS routes the spill tier's file access through an injectable
	// filesystem seam; nil means the real OS filesystem. Fault-injection
	// tests script failures here to exercise the disk-trouble fallbacks
	// and the merge-on-read error paths.
	FS iofault.FS

	// Ctx, when non-nil, arms cooperative cancellation: scans check it at
	// block granularity (sizing and build kernels, every keyBlockRows
	// rows), run granularity (K-way spill counting) and chunk/item
	// granularity (workpool dispatch), stop cleanly when it fires —
	// deferred spill Cleanups still run, no partial result escapes — and
	// BuildPC, LabelSize, LabelSizes, BuildLabel and PatternsOver return
	// the typed context error (context.Canceled or
	// context.DeadlineExceeded). Only BuildLabelOpts, which cannot return
	// an error, panics instead. A built label does not keep Ctx: its
	// queries take their own ctx. A nil Ctx (or a never-cancelled context)
	// makes every check a single nil compare — see ctx.go.
	Ctx context.Context

	// minRowsPerWorker overrides the sequential-fallback threshold. Only
	// tests set it (to force the sharded paths on small datasets); zero
	// means defaultMinRowsPerWorker.
	minRowsPerWorker int

	// denseLimitOverride overrides the dense kernel's key-space threshold
	// (see dense.go): 0 means defaultDenseLimit, a negative value disables
	// the dense kernel, so every set counts through hash maps — the
	// differential tests' oracle. Only tests set it. LabelSizes applies it
	// to each set's accumulator the same way.
	denseLimitOverride int
}

// scanWorkers resolves the effective worker count for an n-row scan.
func (o CountOptions) scanWorkers(rows int) int {
	min := o.minRowsPerWorker
	if min <= 0 {
		min = defaultMinRowsPerWorker
	}
	return workpool.Resolve(o.Workers, rows/min)
}

// LabelSize returns |P_S| for attribute set s, the size a label built on s
// would have (paper line 6 of Algorithm 1: labelSize(c, D)). When cap >= 0
// and the distinct count exceeds cap, counting aborts and LabelSize
// returns (cap+1, false): the caller only needs to know the bound was
// breached. On NULL-free data label sizes are monotone in S (refining a
// grouping can only split groups), which is what makes Algorithm 1's
// subtree pruning sound; a row NULL in an added attribute leaves the
// grouping, so with NULLs a superset can have fewer patterns
// (TestLabelSizeNotMonotoneWithNulls). It is LabelSizes of the one set:
// the same result, kernel counters and spill behaviour for every worker
// count.
//
// The only error is opts.Ctx firing: the scan aborts at the next block
// (or spill-run) boundary and surfaces the typed context error. Disk
// trouble on the spill tier is not an error here — it degrades to the
// in-memory kernel, metered in ScanStats.
func LabelSize(d *dataset.Dataset, s lattice.AttrSet, cap int, opts CountOptions) (size int, within bool, err error) {
	sizes, withins, err := LabelSizes(d, []lattice.AttrSet{s}, cap, opts)
	if err != nil {
		return 0, false, err
	}
	return sizes[0], withins[0], nil
}

// LabelSizes evaluates the label sizes of a whole frontier of candidate
// attribute sets. For each set i the pair (sizes[i], within[i]) is exactly
// what the sequential labelSize loop reports for sets[i], for every worker
// count and with or without Ctx; LabelSize is its one-set form.
//
// It is the engine's one sizing kernel. Sets are grouped by gen parent — S
// minus its largest attribute a — across the whole frontier. Because a is
// the last member of S's mixed-radix key, that key is the parent's key
// plus (v_a − 1)·radix(parent) whenever both keys are one word, so each
// group computes its parent's keys once per row block (Keyer.KeyBlock) and
// every child extends them by one column. A child counts into a pooled
// dense slab when its key space passes denseSpaceOK (dense.go) and into a
// uint64 hash set otherwise; a set whose key is wider than one word counts
// row by row into a hash set of record-form keys. Every child has the
// sequential loop's exact cap-abort: it stops counting the moment it is
// proven out of bound, so a hash set never holds more than cap+1 keys.
//
// Groups are the unit of parallelism: while there are at least as many
// groups as workers, each worker sizes whole groups and holds one group's
// accumulators at a time; spare workers shard each group's rows, and the
// shards merge with the same exact cap-abort.
//
// Under a CountOptions.MemBudget a set beyond the dense tier is judged by
// the state its accumulator can reach: min(radix, rows, cap+1) keys (no
// radix term for a key wider than one word, no cap+1 term when cap < 0),
// priced with the spill tier's per-entry map models. The verdict does not depend on the worker count, so every worker
// count picks the same tier. A set that fits stays in its group; with a
// cap, that is every bound a label is meant to have. A set still over
// budget — an uncapped size, or a cap too large for the budget — joins no
// group: it is sized afterwards, in frontier order, by a spilled build's
// partition phase and a count of its runs that keeps only the distinct
// total, with the same cap-abort and no sorted run written
// (labelSizeSpilled); disk trouble degrades that set to the capped
// in-memory kernel.
//
// The only error is opts.Ctx firing: every worker checks it once per row
// block (and a spilled set once per block or run), and the whole
// frontier evaluation aborts with the typed context error — sizes and
// within are nil then, never partially filled.
func LabelSizes(d *dataset.Dataset, sets []lattice.AttrSet, cap int, opts CountOptions) (sizes []int, within []bool, err error) {
	sizes = make([]int, len(sets))
	within = make([]bool, len(sets))
	groups, over := planSizeGroups(d, sets, cap, opts, sizes, within)
	rows := d.NumRows()
	cols := datasetCols(d)
	stop := opts.stop()
	eff := workpool.Resolve(opts.Workers, math.MaxInt)
	outer := min(len(groups), eff)
	perGroup := opts
	perGroup.Workers = eff / max(outer, 1)
	workers := perGroup.scanWorkers(rows)
	if err := workpool.DoCtx(opts.Ctx, len(groups), outer, func(gi int) {
		groups[gi].size(cols, rows, workers, cap, opts.Pool, stop, sizes, within)
	}); err != nil {
		return nil, nil, err
	}
	for _, i := range over {
		if sizes[i], within[i], err = labelSizeSpilled(d, sets[i], cap, opts); err != nil {
			return nil, nil, err
		}
	}
	return sizes, within, nil
}

// sizeGroup is the frontier sets that share a gen parent.
type sizeGroup struct {
	parent   *Keyer
	children []sizeChild
}

// sizeChild is one set of a sizing group. A one-word child's key is the
// parent's key plus (id-1)·mult, id being its row's value of the added
// attribute; a wider child carries its own keyer instead.
type sizeChild struct {
	idx   int      // frontier index
	col   []uint16 // the added attribute's column
	mult  uint64   // the parent's key space
	slots int      // dense slab length; 0 counts into a hash set
	wide  *Keyer   // non-nil when the set's key is wider than one word
}

// sizeAcc is one worker's accumulator for one child; exactly one of slab,
// seen and seenRec is set.
type sizeAcc struct {
	slab     []int32 // counts by key
	distinct int     // nonzero slab slots
	seen     map[uint64]struct{}
	seenRec  map[string]struct{} // record-form keys of a wide child
}

// size is the accumulator's distinct-key count.
func (a *sizeAcc) size() int { return a.distinct + len(a.seen) + len(a.seenRec) }

// capSize applies the cap-abort contract to a distinct count: past cap it
// reads (cap+1, false).
func capSize(n, cap int) (int, bool) {
	if cap >= 0 && n > cap {
		return cap + 1, false
	}
	return n, true
}

// planSizeGroups groups a frontier's sets by gen parent, in ascending
// parent order and frontier order within a parent, and picks each set's
// accumulator. The kernel counters are bumped here, single-threaded, so
// they are identical for every worker count. ∅ has no gen parent and no
// key members — every row carries its one empty key — so it is sized here
// without a scan. over lists, in frontier order, the sets whose sizing
// state can model over opts.MemBudget; they join no group.
func planSizeGroups(d *dataset.Dataset, sets []lattice.AttrSet, cap int, opts CountOptions, sizes []int, within []bool) (groups []sizeGroup, over []int) {
	rows := d.NumRows()
	limit := opts.denseLimit()
	var discard ScanStats
	stats := opts.Stats
	if stats == nil {
		stats = &discard
	}
	genParent := func(i int) lattice.AttrSet { return sets[i].Remove(sets[i].MaxIndex()) }
	order := make([]int, 0, len(sets))
	for i, s := range sets {
		if s.IsEmpty() {
			sizes[i], within[i] = capSize(min(rows, 1), cap)
			continue
		}
		if opts.MemBudget > 0 {
			if fp, ok := opts.mapFootprint(NewKeyer(d, s), rows, cap); ok && fp > opts.MemBudget {
				over = append(over, i)
				continue
			}
		}
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(genParent(a), genParent(b)) })

	children := make([]sizeChild, len(order))
	for lo := 0; lo < len(order); {
		p := genParent(order[lo])
		hi := lo + 1
		for hi < len(order) && genParent(order[hi]) == p {
			hi++
		}
		g := sizeGroup{parent: NewKeyer(d, p), children: children[lo:hi]}
		pr, parentFits := g.parent.Radix()
		for j, i := range order[lo:hi] {
			c := &g.children[j]
			c.idx = i
			a := sets[i].MaxIndex()
			radix, fits := mulRadix(pr, domainRadix(d, a))
			switch {
			case !parentFits || !fits:
				c.wide = NewKeyer(d, sets[i])
				stats.Wide++
			case denseSpaceOK(radix, rows, limit):
				c.col, c.mult, c.slots = d.Col(a), pr, int(radix)
				stats.Dense++
			default:
				c.col, c.mult = d.Col(a), pr
				stats.Map++
			}
		}
		groups = append(groups, g)
		lo = hi
	}
	return groups, over
}

// size counts one group over all rows with up to workers row shards and
// writes each child's (size, within) pair. After a fired stop the pairs
// are partial; the caller discards them.
func (g *sizeGroup) size(cols [][]uint16, rows, workers, cap int, pool *VecPool, stop ctxStop, sizes []int, within []bool) {
	if workers <= 1 {
		accs := newSizeAccs(g.children, pool)
		scanGroup(g, accs, cols, 0, rows, cap, nil, pool, stop)
		for j, c := range g.children {
			sizes[c.idx], within[c.idx] = capSize(accs[j].size(), cap)
		}
		releaseSizeAccs(accs, pool)
		return
	}
	// exceeded[j] fires when any worker's local distinct count for child j
	// passes cap — a lower bound on the global count, so the child is out
	// of bound. Other workers then stop counting it; this only ever skips
	// work whose outcome is already decided.
	exceeded := make([]atomic.Bool, len(g.children))
	shards := make([][]sizeAcc, workers)
	workpool.RunChunks(rows, workers, func(w, lo, hi int) {
		shards[w] = newSizeAccs(g.children, pool)
		scanGroup(g, shards[w], cols, lo, hi, cap, exceeded, pool, stop)
	})
	for j, c := range g.children {
		if cap >= 0 && exceeded[j].Load() {
			sizes[c.idx], within[c.idx] = cap+1, false
			continue
		}
		sizes[c.idx], within[c.idx] = capSize(mergeSizeShards(shards, j, cap), cap)
	}
	for _, accs := range shards {
		releaseSizeAccs(accs, pool)
	}
}

// newSizeAccs allocates one worker's accumulators for a group's children:
// pooled zeroed slabs for dense children, hash sets otherwise.
func newSizeAccs(children []sizeChild, pool *VecPool) []sizeAcc {
	accs := make([]sizeAcc, len(children))
	for j, c := range children {
		switch {
		case c.wide != nil:
			accs[j].seenRec = make(map[string]struct{})
		case c.slots > 0:
			accs[j].slab = pool.Int32(c.slots, true)
		default:
			accs[j].seen = make(map[uint64]struct{})
		}
	}
	return accs
}

// releaseSizeAccs returns a worker's dense slabs to the pool; their sizes
// have been read or are discarded.
func releaseSizeAccs(accs []sizeAcc, pool *VecPool) {
	for j := range accs {
		pool.PutInt32(accs[j].slab)
		accs[j].slab = nil
	}
}

// scanGroup counts rows [lo, hi) into one worker's accumulators for a
// group. A row block's parent keys are computed once, when the first
// active uint64-key child needs them, and each such child extends them by
// its own column; wide children run the per-row loop. A child that
// passes the cap is swap-removed from the active list so later blocks skip
// it. In sharded mode (non-nil exceeded) it also publishes its flag, and a
// child another worker already proved out of bound is dropped. stop is
// polled once per block; a fired context ends the pass with the
// accumulators partial, and the caller discards them.
func scanGroup(g *sizeGroup, accs []sizeAcc, cols [][]uint16, lo, hi, cap int, exceeded []atomic.Bool, pool *VecPool, stop ctxStop) {
	active := make([]int, len(accs))
	for i := range active {
		active[i] = i
	}
	var pg []uint64 // drawn on first use: a group of wide children never needs it
	defer func() { pool.PutUint64(pg) }()
	var buf []byte
	for blo := lo; blo < hi && len(active) > 0; blo += keyBlockRows {
		if stop.hit() {
			return
		}
		bhi := min(blo+keyBlockRows, hi)
		keyed := false
		for ai := 0; ai < len(active); ai++ {
			j := active[ai]
			c, acc := &g.children[j], &accs[j]
			var done bool
			switch {
			case exceeded != nil && cap >= 0 && exceeded[j].Load():
				done = true
			case c.wide != nil:
				done = acc.addRows(c.wide, cols, blo, bhi, cap, &buf)
			default:
				if !keyed {
					if pg == nil {
						pg = pool.Uint64(keyBlockRows, false)
					}
					g.parent.KeyBlock(cols, blo, bhi, pg)
					keyed = true
				}
				done = acc.addBlock(c, pg[:bhi-blo], blo, cap)
			}
			if done {
				if exceeded != nil {
					exceeded[j].Store(true)
				}
				active[ai] = active[len(active)-1]
				active = active[:len(active)-1]
				ai--
			}
		}
	}
}

// addBlock extends one block of parent keys pg, starting at row blo, by a
// uint64-key child's column and counts the child keys; it reports whether
// the distinct count passed the cap.
func (a *sizeAcc) addBlock(c *sizeChild, pg []uint64, blo, cap int) (done bool) {
	col := c.col[blo : blo+len(pg)]
	mult := c.mult
	if slab := a.slab; slab != nil {
		for i, id := range col {
			if id == dataset.Null || pg[i] == InvalidKey {
				continue
			}
			key := pg[i] + uint64(id-1)*mult
			if slab[key] == 0 {
				a.distinct++
				if cap >= 0 && a.distinct > cap {
					return true
				}
			}
			slab[key]++
		}
		return false
	}
	seen := a.seen
	for i, id := range col {
		if id == dataset.Null || pg[i] == InvalidKey {
			continue
		}
		key := pg[i] + uint64(id-1)*mult
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		if cap >= 0 && len(seen) > cap {
			return true
		}
	}
	return false
}

// addRows counts rows [lo, hi) of a wide child one row at a time, by
// their record-form keys; buf is the worker's key scratch. It reports
// whether the distinct count passed the cap.
func (a *sizeAcc) addRows(k *Keyer, cols [][]uint16, lo, hi, cap int, buf *[]byte) (done bool) {
	seen := a.seenRec
	for r := lo; r < hi; r++ {
		b, ok := k.appendRecordRow((*buf)[:0], cols, r)
		*buf = b
		if !ok {
			continue
		}
		if _, dup := seen[string(b)]; dup {
			continue
		}
		seen[string(b)] = struct{}{}
		if cap >= 0 && len(seen) > cap {
			return true
		}
	}
	return false
}

// mergeSizeShards unions child j's per-worker accumulators into the first
// worker's — vector addition with a nonzero-slot counter for dense slabs,
// set union otherwise — and returns the distinct count, stopping as soon
// as it passes cap, exactly where the sequential loop would.
func mergeSizeShards(shards [][]sizeAcc, j, cap int) int {
	first := &shards[0][j]
	switch {
	case first.slab != nil:
		n := first.distinct
		for _, accs := range shards[1:] {
			for key, c := range accs[j].slab {
				if c == 0 {
					continue
				}
				if first.slab[key] == 0 {
					if n++; cap >= 0 && n > cap {
						return n
					}
				}
				first.slab[key] += c
			}
		}
		return n
	case first.seen != nil:
		for _, accs := range shards[1:] {
			for key := range accs[j].seen {
				first.seen[key] = struct{}{}
				if cap >= 0 && len(first.seen) > cap {
					return len(first.seen)
				}
			}
		}
		return len(first.seen)
	default:
		for _, accs := range shards[1:] {
			for key := range accs[j].seenRec {
				first.seenRec[key] = struct{}{}
				if cap >= 0 && len(first.seenRec) > cap {
					return len(first.seenRec)
				}
			}
		}
		return len(first.seenRec)
	}
}
