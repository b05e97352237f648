package core

import (
	"fmt"
	"sync/atomic"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/workpool"
)

// Batched sibling refinement: one pass over a dense-keyable parent set's
// keys sizes the whole batch of sibling children S ∪ {a₁}, …, S ∪ {aₖ}. A
// child's group-by refines its parent's — every child group is a (parent
// key, added-attribute value) pair — so each child's label size is the
// number of distinct pairs in a compact space of radix(S) × dom(a) slots,
// numbered key + (value-1)·radix(S). The parent's keys are recomputed
// blockwise through Keyer.KeyBlock rather than materialized; each block is
// read once and scattered into k per-child accumulators — a pooled dense
// []int32 slab when the compact space is small, a hash set otherwise. Each
// child keeps the exact sequential cap-abort contract of LabelSize, and
// row chunks shard across workers exactly like the fused frontier scan.
// Refinement never spills: its compact spaces are bounded by the parent's
// dense key space times one attribute domain.

// DenseKeyable reports whether attribute set s would be counted by the
// dense kernel under the engine defaults, and the flat key-space size when
// so. Any dense-keyable set can parent a RefineSizes pass; the frontier
// scheduler uses it to route candidates onto the batched refinement tier.
func DenseKeyable(d *dataset.Dataset, s lattice.AttrSet) (radix int, ok bool) {
	return denseRadix(NewKeyer(d, s), d.NumRows(), DefaultDenseLimit)
}

// DenseExtendable reports whether extending a dense-keyable set with key
// space radix by attribute a stays dense-keyable under the engine
// defaults: the grown key space must respect both the slot limit and the
// sparsity guard relative to the row count.
func DenseExtendable(d *dataset.Dataset, radix, a int) bool {
	dim := d.Attr(a).DomainSize()
	if dim == 0 {
		dim = 1 // matches the keyer's substitution for all-NULL attributes
	}
	return denseSpaceOK(uint64(radix)*uint64(dim), d.NumRows(), DefaultDenseLimit)
}

// batchPlan is the per-child static plan of one batched refinement.
type batchPlan struct {
	col    []uint16
	mult   uint64 // slot = pg + (id-1)*mult; mult = parent gspace
	cspace uint64 // compact child space: gspace × dom(attr)
	dense  bool   // dense slab accumulator vs hash set
}

// batchAcc is one worker's accumulator for one child.
type batchAcc struct {
	slab     []int32             // dense path
	seen     map[uint64]struct{} // sparse path
	distinct int
	done     bool // cap exceeded in this worker's rows
}

// RefineSizes computes LabelSize(d, parent ∪ {a}, cap) for every attribute
// a in attrs in a single blocked pass over the parent's dense keys: one
// pass, k per-child accumulators, per-child exact cap-abort, sharded across
// opts.Workers. (sizes[i], within[i]) is exactly what the sequential
// LabelSize reports for attrs[i], for every worker count. Accumulator slabs
// come from opts.Pool and all return to it before the call completes.
//
// The parent must be dense-keyable and attrs must name distinct
// non-member attributes; anything else is a programmer error and panics.
// With CountOptions.Ctx armed, every worker polls the context once per row
// block; a fired context aborts the pass and surfaces the typed context
// error with nil results — no partially counted child escapes.
func RefineSizes(d *dataset.Dataset, parent lattice.AttrSet, attrs []int, cap int, opts CountOptions) (sizes []int, within []bool, err error) {
	rows := d.NumRows()
	keyer := NewKeyer(d, parent)
	gspace, ok := denseRadix(keyer, rows, DefaultDenseLimit)
	if !ok {
		panic(fmt.Sprintf("core: refine sizes of non-dense-keyable parent %v", parent))
	}
	limit := opts.denseLimit()
	var dup lattice.AttrSet
	plans := make([]batchPlan, len(attrs))
	for j, a := range attrs {
		if parent.Has(a) {
			panic(fmt.Sprintf("core: refine sizes by attribute %d already in %v", a, parent))
		}
		if dup.Has(a) {
			panic(fmt.Sprintf("core: duplicate attribute %d in refine sizes of %v", a, parent))
		}
		dup = dup.Add(a)
		cspace := uint64(gspace) * uint64(d.Attr(a).DomainSize())
		plans[j] = batchPlan{
			col:    d.Col(a),
			mult:   uint64(gspace),
			cspace: cspace,
			dense:  denseSpaceOK(cspace, rows, limit),
		}
	}
	sizes = make([]int, len(attrs))
	within = make([]bool, len(attrs))
	if len(attrs) == 0 {
		return sizes, within, nil
	}

	pool := opts.Pool
	cols := datasetCols(d)
	stop := opts.stop()
	workers := opts.scanWorkers(rows)
	if workers <= 1 {
		accs := newBatchAccs(plans, pool)
		batchScan(plans, accs, keyer, cols, 0, rows, cap, nil, pool, stop)
		releaseBatchAccs([][]batchAcc{accs}, pool)
		if err := stop.err(); err != nil {
			return nil, nil, err
		}
		for j, acc := range accs {
			// A child that passed the cap stopped counting at exactly cap+1.
			sizes[j], within[j] = acc.distinct, !acc.done
		}
		return sizes, within, nil
	}

	// Sharded pass: exceeded[j] fires when any worker's local distinct
	// count for child j passes cap — a lower bound on the global count —
	// so other workers stop accumulating it. The merge re-derives the
	// exact verdict for the rest.
	exceeded := make([]atomic.Bool, len(attrs))
	shards := make([][]batchAcc, workers)
	workpool.RunChunks(rows, workers, func(w, lo, hi int) {
		accs := newBatchAccs(plans, pool)
		batchScan(plans, accs, keyer, cols, lo, hi, cap, exceeded, pool, stop)
		shards[w] = accs
	})
	if err := stop.err(); err != nil {
		releaseBatchAccs(shards, pool)
		return nil, nil, err
	}
	for j := range plans {
		if cap >= 0 && exceeded[j].Load() {
			sizes[j], within[j] = cap+1, false
			for _, accs := range shards {
				pool.PutInt32(accs[j].slab)
			}
			continue
		}
		sizes[j], within[j] = mergeBatchShards(shards, j, cap, pool)
	}
	return sizes, within, nil
}

// releaseBatchAccs returns every pooled accumulator slab of a finished
// sequential pass or a cancelled pass; the slab contents are not read
// afterwards.
func releaseBatchAccs(shards [][]batchAcc, pool *VecPool) {
	for _, accs := range shards {
		for j := range accs {
			pool.PutInt32(accs[j].slab)
			accs[j].slab = nil
		}
	}
}

// newBatchAccs allocates one worker's accumulators: pooled zeroed slabs
// for dense children, hash sets otherwise.
func newBatchAccs(plans []batchPlan, pool *VecPool) []batchAcc {
	accs := make([]batchAcc, len(plans))
	for j := range plans {
		if plans[j].dense {
			accs[j].slab = pool.Int32(int(plans[j].cspace), true)
		} else {
			accs[j].seen = make(map[uint64]struct{})
		}
	}
	return accs
}

// batchScan is the blocked counting loop over rows [lo, hi): the parent
// keys of a block are computed once through the keyer, and every still-
// active child consumes them against its own column. Children that pass
// the cap are swap-removed from the active list (publishing the shared
// exceeded flag in sharded mode) so later blocks skip them. stop is polled
// once per block, next to the exceeded flags; a fired context ends this
// worker's pass with the accumulators partial — the caller discards them.
func batchScan(plans []batchPlan, accs []batchAcc, keyer *Keyer, cols [][]uint16, lo, hi, cap int, exceeded []atomic.Bool, pool *VecPool, stop ctxStop) {
	active := make([]int, len(plans))
	for i := range active {
		active[i] = i
	}
	pg := pool.Uint64(keyBlockRows, false)
	defer pool.PutUint64(pg)
	for blo := lo; blo < hi && len(active) > 0; blo += keyBlockRows {
		if stop.hit() {
			return
		}
		bhi := min(blo+keyBlockRows, hi)
		keyer.KeyBlock(cols, blo, bhi, pg)
		for ai := 0; ai < len(active); ai++ {
			j := active[ai]
			acc := &accs[j]
			done := false
			if exceeded != nil && cap >= 0 && exceeded[j].Load() {
				done = true
			} else if acc.scanBlock(&plans[j], pg[:bhi-blo], blo, cap) {
				done = true
				acc.done = true
				if exceeded != nil {
					exceeded[j].Store(true)
				}
			}
			if done {
				active[ai] = active[len(active)-1]
				active = active[:len(active)-1]
				ai--
			}
		}
	}
}

// scanBlock feeds one block of parent keys into a child's accumulator and
// reports whether the child's distinct count passed the cap.
func (acc *batchAcc) scanBlock(pl *batchPlan, pg []uint64, blo, cap int) (done bool) {
	col := pl.col[blo : blo+len(pg)]
	mult := pl.mult
	if slab := acc.slab; slab != nil {
		for i, id := range col {
			if id == dataset.Null || pg[i] == InvalidKey {
				continue
			}
			slot := pg[i] + uint64(id-1)*mult
			if slab[slot] == 0 {
				acc.distinct++
				if cap >= 0 && acc.distinct > cap {
					slab[slot]++
					return true
				}
			}
			slab[slot]++
		}
		return false
	}
	seen := acc.seen
	for i, id := range col {
		if id == dataset.Null || pg[i] == InvalidKey {
			continue
		}
		slot := pg[i] + uint64(id-1)*mult
		if _, dup := seen[slot]; dup {
			continue
		}
		seen[slot] = struct{}{}
		acc.distinct++
		if cap >= 0 && acc.distinct > cap {
			return true
		}
	}
	return false
}

// mergeBatchShards unions the per-worker accumulators for child j —
// vector addition with a nonzero-slot counter on the dense path, set union
// otherwise — aborting at the cap exactly as the sequential pass would.
// Every dense slab of child j goes back to the pool.
func mergeBatchShards(shards [][]batchAcc, j, cap int, pool *VecPool) (size int, within bool) {
	first := &shards[0][j]
	if merged := first.slab; merged != nil {
		distinct := first.distinct
		within = true
		for _, accs := range shards[1:] {
			shard := accs[j].slab
			if within {
				for slot, c := range shard {
					if c == 0 {
						continue
					}
					if merged[slot] == 0 {
						distinct++
						if cap >= 0 && distinct > cap {
							within = false
							break
						}
					}
					merged[slot] += c
				}
			}
			pool.PutInt32(shard)
		}
		pool.PutInt32(merged)
		if !within {
			return cap + 1, false
		}
		return distinct, true
	}
	seen := first.seen
	for _, accs := range shards[1:] {
		for slot := range accs[j].seen {
			seen[slot] = struct{}{}
			if cap >= 0 && len(seen) > cap {
				return cap + 1, false
			}
		}
	}
	return len(seen), true
}
