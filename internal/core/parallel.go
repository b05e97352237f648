package core

import (
	"context"
	"sync/atomic"

	"pcbl/internal/dataset"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
	"pcbl/internal/workpool"
)

// The counting engine: sharded parallel group-by and fused multi-set
// scanning. A dataset scan is split into contiguous row chunks, one per
// worker; each worker fills private maps with the shared read-only Keyer
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

	// DenseLimit overrides the dense kernel's key-space threshold for
	// scan group-bys (see dense.go): 0 means DefaultDenseLimit, a
	// negative value disables the dense kernel entirely — every scanned
	// set counts through hash maps, the pre-dense engine behaviour,
	// useful as a differential-testing oracle and an ablation baseline.
	// RefineSizes applies it only to pick its compact-space accumulators;
	// the search's refinement passes leave it at the default.
	DenseLimit int

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
	// state of a single group-by in bytes. Map-kernel sets — uint64 keys
	// beyond the dense tier as well as byte-string keys overflowing uint64
	// — whose estimated map footprint exceeds the budget are routed to the
	// external-memory spill tier (spillcount.go): keys hash-partition into
	// on-disk runs (fixed-width uint64 records or byte records, matching
	// the key encoding) sized so one run's map fits each counting worker's
	// share of the budget, and the key-disjoint runs are counted K-way in
	// parallel. Budgeted builds are bounded end to end: a result map that
	// models over the budget is not materialized — the PC keeps its runs
	// and serves lookups merge-on-read. Results are bit-identical to the
	// in-memory kernels. Zero means unlimited (never spill). The dense
	// kernel is not governed by this knob: its state is bounded by the
	// dense slot limit the selection rules already cap.
	MemBudget int64

	// SpillDir overrides where spill run files are written; empty means
	// the system temp directory. Run files live in a private subdirectory
	// that is removed when the scan finishes — on success, cap-abort and
	// panic alike.
	SpillDir string

	// FS routes the spill tier's file access through an injectable
	// filesystem seam; nil means the real OS filesystem. Fault-injection
	// tests script failures here to exercise the disk-trouble fallbacks
	// and the merge-on-read error paths.
	FS iofault.FS

	// DisableSharedSpill forces the per-set spill partition path even when
	// a frontier has several spilled sets — each set then re-scans the
	// dataset itself, the pre-shared-pass behaviour. Results are identical
	// either way; differential tests and the BenchmarkSharedSpillPartition
	// baseline use it as the ablation knob.
	DisableSharedSpill bool

	// Ctx, when non-nil, arms cooperative cancellation: scans check it at
	// block granularity (fused scans and build kernels, every
	// fusedBlockRows rows), run granularity (K-way spill counting) and
	// chunk/item granularity (workpool dispatch), stop cleanly when it
	// fires — deferred spill Cleanups still run, no partial result
	// escapes — and BuildPC, LabelSize, LabelSizes, RefineSizes,
	// BuildLabel and PatternsOver return the typed context error
	// (context.Canceled or context.DeadlineExceeded). Only
	// BuildLabelOpts, which cannot return an error, panics instead. A
	// built label does not keep Ctx: its queries take their own ctx. A nil
	// Ctx (or a never-cancelled context) makes every check a single nil
	// compare — see ctx.go.
	Ctx context.Context

	// minRowsPerWorker overrides the sequential-fallback threshold. Only
	// tests set it (to force the sharded paths on small datasets); zero
	// means defaultMinRowsPerWorker.
	minRowsPerWorker int
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
// breached. Label sizes are monotone in S (refining a grouping can only
// split groups), which is what makes this early abort — and Algorithm 1's
// subtree pruning — sound. The cap-abort result is exact for every worker
// count and schedule.
//
// The only error is opts.Ctx firing: the scan aborts at the next block
// (or spill-run) boundary and surfaces the typed context error. Disk
// trouble on the spill tier is not an error here — it degrades to the
// in-memory kernels, metered in ScanStats.
func LabelSize(d *dataset.Dataset, s lattice.AttrSet, cap int, opts CountOptions) (size int, within bool, err error) {
	stop := opts.stop()
	if opts.MemBudget > 0 {
		k := NewKeyer(d, s)
		workers := opts.scanWorkers(d.NumRows())
		if runs, format, spillOK := opts.spillFor(k, d.NumRows(), workers); spillOK {
			sz, w, serr := labelSizeSpill(k, datasetCols(d), d.NumRows(), workers, runs, format, opts, cap)
			if serr == nil {
				return sz, w, nil
			}
			if isCtxErr(serr) {
				return 0, false, serr
			}
			// Disk trouble: the in-memory paths below produce the identical
			// result at unbounded memory.
			opts.Stats.addSpillFallbackErr(serr)
		}
	}
	// The sequential labelSize loop has no cancellation points; with an
	// armed context the single-set fused scan (bit-identical results)
	// carries the per-block checks instead.
	if opts.scanWorkers(d.NumRows()) <= 1 && stop.done == nil {
		sz, w := labelSize(d, s, cap)
		return sz, w, nil
	}
	sizes, within2, err := LabelSizes(d, []lattice.AttrSet{s}, cap, opts)
	if err != nil {
		return 0, false, err
	}
	return sizes[0], within2[0], nil
}

// fusedSet is the per-attribute-set state of one fused scan worker. Exactly
// one of seenD/seenU/seenS is active, matching the kernel the planning pass
// assigned to the set.
type fusedSet struct {
	keyer    *Keyer
	seenD    []int32 // dense path: flat counts; distinct tracks nonzero slots
	distinct int
	seenU    map[uint64]struct{}
	seenS    map[string]struct{}
}

// LabelSizes evaluates the label sizes of a whole frontier of candidate
// attribute sets in a single pass over the rows: one Keyer per set, shared
// column access, and per-set early abort once a set's distinct count
// exceeds cap. Row chunks are additionally sharded across workers
// (CountOptions). For each set i the returned pair (sizes[i], within[i])
// is exactly what LabelSize(d, sets[i], cap, opts) returns.
//
// With cap >= 0 the per-worker memory is bounded by len(sets) × (cap+1)
// entries: a set stops accumulating the moment it is proven out of bound.
// Callers with very large frontiers should batch (package search uses
// batches of a few hundred sets).
//
// Under a CountOptions.MemBudget, map-kernel sets (uint64 or byte keys)
// whose estimated map footprint exceeds the budget do not join the fused
// in-memory scan at all — their seen-sets are exactly the unbounded state
// the budget forbids. They are sized afterwards, one external spill
// group-by each (uint64 or byte record format, matching the key encoding,
// with K-way parallel run counting), in frontier order (deterministic for
// every worker count); all other sets scan fused as usual.
//
// The only error is opts.Ctx firing: every worker of the fused scan checks
// it once per fusedBlockRows row block (and the spill tier once per run),
// and the whole frontier evaluation aborts with the typed context error —
// sizes and within are nil then, never partially filled.
func LabelSizes(d *dataset.Dataset, sets []lattice.AttrSet, cap int, opts CountOptions) (sizes []int, within []bool, err error) {
	if opts.MemBudget > 0 {
		if si, ok := planSpilledSets(d, sets, opts); ok {
			return labelSizesSplit(d, sets, cap, opts, si)
		}
	}
	return labelSizesFusedScan(d, sets, cap, opts)
}

// spilledSet is one frontier set routed to the external-memory tier.
type spilledSet struct {
	idx    int
	runs   int
	format spillFormat
	k      *Keyer // built during planning, reused by the spill scan
}

// planSpilledSets applies the spill predicate to a frontier; ok is false
// when no set spills (the common case — the caller takes the plain fused
// path with zero overhead beyond the predicate).
func planSpilledSets(d *dataset.Dataset, sets []lattice.AttrSet, opts CountOptions) (spilled []spilledSet, ok bool) {
	rows := d.NumRows()
	workers := opts.scanWorkers(rows)
	for i, s := range sets {
		k := NewKeyer(d, s)
		if runs, format, spillOK := opts.spillFor(k, rows, workers); spillOK {
			spilled = append(spilled, spilledSet{idx: i, runs: runs, format: format, k: k})
		}
	}
	return spilled, len(spilled) > 0
}

// labelSizesSplit sizes a frontier whose spill plan is non-empty: the
// in-memory sets run through the fused scan, then each spilled set runs
// its own partitioned on-disk group-by.
func labelSizesSplit(d *dataset.Dataset, sets []lattice.AttrSet, cap int, opts CountOptions, spilled []spilledSet) (sizes []int, within []bool, err error) {
	sizes = make([]int, len(sets))
	within = make([]bool, len(sets))
	isSpilled := make([]bool, len(sets))
	for _, sp := range spilled {
		isSpilled[sp.idx] = true
	}
	var scanSets []lattice.AttrSet
	var scanIdx []int
	for i, s := range sets {
		if !isSpilled[i] {
			scanSets = append(scanSets, s)
			scanIdx = append(scanIdx, i)
		}
	}
	if len(scanSets) > 0 {
		subSizes, subWithin, err := labelSizesFusedScan(d, scanSets, cap, opts)
		if err != nil {
			return nil, nil, err
		}
		for j, i := range scanIdx {
			sizes[i], within[i] = subSizes[j], subWithin[j]
		}
	}
	if len(spilled) > 1 && !opts.DisableSharedSpill {
		// One shared partition pass over the dataset routes every spilled
		// set's records at once; the runs are then counted per set exactly
		// as below (labelSizeSpillShared).
		if err := labelSizesSpilledShared(d, sets, cap, opts, spilled, sizes, within); err != nil {
			return nil, nil, err
		}
		return sizes, within, nil
	}
	rows := d.NumRows()
	cols := datasetCols(d)
	workers := opts.scanWorkers(rows)
	for _, sp := range spilled {
		sz, w, serr := labelSizeSpill(sp.k, cols, rows, workers, sp.runs, sp.format, opts, cap)
		if serr != nil {
			if isCtxErr(serr) {
				return nil, nil, serr
			}
			// Disk trouble: in-memory fallback for this one set, identical
			// result at unbounded memory.
			opts.Stats.addSpillFallbackErr(serr)
			sz, w, serr = labelSizeFallback(d, sets[sp.idx], cap, opts)
			if serr != nil {
				return nil, nil, serr
			}
		}
		sizes[sp.idx], within[sp.idx] = sz, w
	}
	return sizes, within, nil
}

// labelSizesFusedScan is the in-memory fused scan behind LabelSizes.
func labelSizesFusedScan(d *dataset.Dataset, sets []lattice.AttrSet, cap int, opts CountOptions) (sizes []int, within []bool, err error) {
	sizes = make([]int, len(sets))
	within = make([]bool, len(sets))
	if len(sets) == 0 {
		return sizes, within, nil
	}
	rows := d.NumRows()
	cols := datasetCols(d)
	keyers := make([]*Keyer, len(sets))
	// Plan the kernel per set up front (deterministically, in frontier
	// order): dense flat arrays while the per-worker slot budget lasts,
	// hash maps afterwards and for large or overflowing key spaces.
	radixes := make([]int, len(sets))
	budget := fusedDenseSlotBudget
	for i, s := range sets {
		k := NewKeyer(d, s)
		keyers[i] = k
		if radix, ok := denseRadix(k, rows, opts.denseLimit()); ok && radix <= budget {
			radixes[i] = radix
			budget -= radix
			if opts.Stats != nil {
				opts.Stats.Dense++
			}
		} else if opts.Stats != nil {
			if k.Fits() {
				opts.Stats.Map++
			} else {
				opts.Stats.Bytes++
			}
		}
	}

	stop := opts.stop()
	workers := opts.scanWorkers(rows)
	if workers <= 1 {
		st := newFusedStates(keyers, radixes, opts.Pool)
		scanFused(st, cols, 0, rows, cap, nil, opts.Pool, stop)
		shards := [][]fusedSet{st}
		if err := stop.err(); err != nil {
			// Cancelled mid-scan: the seen states are partial — release
			// them unread so no torn size escapes.
			releaseFusedStates(shards, opts.Pool)
			return nil, nil, err
		}
		for i := range st {
			sizes[i], within[i] = st[i].result(cap)
		}
		releaseFusedStates(shards, opts.Pool)
		return sizes, within, nil
	}

	// exceeded[i] fires when any worker's local distinct count for set i
	// passes cap — a lower bound on the global count, so the set is
	// globally out of bound. Other workers then stop tracking it; this
	// only ever skips work whose outcome is already decided.
	exceeded := make([]atomic.Bool, len(sets))
	shards := make([][]fusedSet, workers)
	workpool.RunChunks(rows, workers, func(w, lo, hi int) {
		st := newFusedStates(keyers, radixes, opts.Pool)
		scanFused(st, cols, lo, hi, cap, exceeded, opts.Pool, stop)
		shards[w] = st
	})
	if err := stop.err(); err != nil {
		releaseFusedStates(shards, opts.Pool)
		return nil, nil, err
	}

	for i := range sets {
		if cap >= 0 && exceeded[i].Load() {
			sizes[i], within[i] = cap+1, false
			continue
		}
		sizes[i], within[i] = mergeFused(shards, i, cap)
	}
	releaseFusedStates(shards, opts.Pool)
	return sizes, within, nil
}

// releaseFusedStates returns every dense seen-slab of a finished fused
// scan to the pool; the sizes have been extracted, so no shard state is
// retained.
func releaseFusedStates(shards [][]fusedSet, pool *VecPool) {
	if pool == nil {
		return
	}
	for _, st := range shards {
		for i := range st {
			pool.PutInt32(st[i].seenD)
			st[i].seenD = nil
		}
	}
}

// newFusedStates allocates per-set scan state for one worker, following
// the kernel plan (radixes[i] > 0 means the dense path). Dense seen-slabs
// come from the pool when one is attached.
func newFusedStates(keyers []*Keyer, radixes []int, pool *VecPool) []fusedSet {
	st := make([]fusedSet, len(keyers))
	for i, k := range keyers {
		st[i].keyer = k
		switch {
		case radixes[i] > 0:
			st[i].seenD = pool.Int32(radixes[i], true)
		case k.Fits():
			st[i].seenU = make(map[uint64]struct{})
		default:
			st[i].seenS = make(map[string]struct{})
		}
	}
	return st
}

// fusedBlockRows is the row-block granularity of the fused scan. Within a
// block each set runs its own tight row loop (the keyer fields stay in
// registers, as in the sequential labelSize loop) while successive sets
// re-read the same cache-resident column block, so one effective pass over
// memory serves the whole frontier.
const fusedBlockRows = 4096

// scanFused runs the fused distinct-count loop over rows [lo, hi). A nil
// exceeded slice means single-worker mode (no shared flags to consult or
// publish). Finished sets are swap-removed from the active list so later
// blocks skip them; the scan stops once no set remains active. Sets on the
// uint64 paths decode each block into a shared key vector before counting
// (columnar batching); byte-string sets keep the per-row loop.
//
// stop is polled once per row block, next to the exceeded flags it
// mirrors; a fired context ends this worker's scan mid-range, leaving the
// seen states partial — the caller detects that via stop.err() and
// discards them.
func scanFused(st []fusedSet, cols [][]uint16, lo, hi, cap int, exceeded []atomic.Bool, pool *VecPool, stop ctxStop) {
	active := make([]int, len(st))
	for i := range active {
		active[i] = i
	}
	var keys []uint64 // lazily allocated: byte-only frontiers never need it
	defer func() { pool.PutUint64(keys) }()
	for blockLo := lo; blockLo < hi && len(active) > 0; blockLo += fusedBlockRows {
		if stop.hit() {
			return
		}
		blockHi := blockLo + fusedBlockRows
		if blockHi > hi {
			blockHi = hi
		}
		for a := 0; a < len(active); a++ {
			i := active[a]
			done := false
			if exceeded != nil && cap >= 0 && exceeded[i].Load() {
				done = true
			} else {
				if keys == nil && st[i].keyer.Fits() {
					keys = pool.Uint64(fusedBlockRows, false)
				}
				if st[i].scanBlock(cols, keys, blockLo, blockHi, cap) {
					done = true
					if exceeded != nil {
						exceeded[i].Store(true)
					}
				}
			}
			if done {
				active[a] = active[len(active)-1]
				active = active[:len(active)-1]
				a--
			}
		}
	}
}

// scanBlock feeds rows [lo, hi) into the set's seen state and reports
// whether the distinct count passed the cap (the set is finished). keys is
// a shared per-worker scratch vector for the columnar key decode.
func (s *fusedSet) scanBlock(cols [][]uint16, keys []uint64, lo, hi, cap int) (done bool) {
	k := s.keyer
	if s.seenD != nil {
		k.KeyBlock(cols, lo, hi, keys)
		seen := s.seenD
		for _, key := range keys[:hi-lo] {
			if key == InvalidKey {
				continue
			}
			if seen[key] == 0 {
				s.distinct++
				if cap >= 0 && s.distinct > cap {
					seen[key]++
					return true
				}
			}
			seen[key]++
		}
		return false
	}
	if seen := s.seenU; seen != nil {
		k.KeyBlock(cols, lo, hi, keys)
		for _, key := range keys[:hi-lo] {
			if key == InvalidKey {
				continue
			}
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
	seen := s.seenS
	var buf []byte
	for r := lo; r < hi; r++ {
		b, ok := k.AppendBytesRow(buf[:0], cols, r)
		buf = b
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

// result reads a single-worker state into LabelSize's contract.
func (s *fusedSet) result(cap int) (size int, within bool) {
	n := s.distinct + len(s.seenU) + len(s.seenS)
	if cap >= 0 && n > cap {
		return cap + 1, false
	}
	return n, true
}

// mergeFused unions the per-worker seen states for frontier index i,
// aborting at the cap exactly as the sequential scan would. Dense shards
// merge by vector addition with a nonzero-slot counter.
func mergeFused(shards [][]fusedSet, i, cap int) (size int, within bool) {
	if merged := shards[0][i].seenD; merged != nil {
		distinct := shards[0][i].distinct
		for _, st := range shards[1:] {
			for slot, c := range st[i].seenD {
				if c == 0 {
					continue
				}
				if merged[slot] == 0 {
					distinct++
					if cap >= 0 && distinct > cap {
						return cap + 1, false
					}
				}
				merged[slot] += c
			}
		}
		return distinct, true
	}
	if shards[0][i].seenU != nil {
		merged := shards[0][i].seenU
		for _, st := range shards[1:] {
			for key := range st[i].seenU {
				merged[key] = struct{}{}
				if cap >= 0 && len(merged) > cap {
					return cap + 1, false
				}
			}
		}
		return len(merged), true
	}
	merged := shards[0][i].seenS
	for _, st := range shards[1:] {
		for key := range st[i].seenS {
			merged[key] = struct{}{}
			if cap >= 0 && len(merged) > cap {
				return cap + 1, false
			}
		}
	}
	return len(merged), true
}
