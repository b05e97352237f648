package core

import (
	"math"

	"pcbl/internal/workpool"
)

// Dense-domain counting kernel. When an attribute set's mixed-radix key
// space is small — the product of the member domain sizes stays below a
// threshold and is not vastly larger than the row count — group-by counting
// runs against a flat []int32 indexed directly by key instead of a hash
// map: increments are a single indexed add, shard merge is vector addition,
// and cap-abort tracks the nonzero-slot count. The kernel is fed by
// columnar key vectors (Keyer.KeyBlock): a row block is decoded into a
// per-set key vector before the count phase, so the decode loop streams one
// column at a time and the count loop is branch-light.
//
// Path selection (shared by BuildPC, LabelSizes, PC.MarginalizeCtx and
// merges, so every entry point picks the same representation for the same
// inputs; rows is the row count the counts cover — a reopened label's
// marginals use the label's |D|, not its schema-only dataset's zero):
//
//   - one-word key, radix ≤ denseLimit AND
//     radix ≤ denseRowFactor × rows (+64)                         →  dense
//   - any other key (W ≥ 1 words), modeled map footprint within
//     CountOptions.MemBudget                                      →  sorted
//   - the same, modeled map footprint over CountOptions.MemBudget →  spill
//     (external group-by: hash-partitioned on-disk runs of pre-summed
//     sorted frames, each run counted by sorting it — see spillcount.go;
//     no budget means the tier is off; LabelSizes models a capped set at
//     cap+1 keys)
//
// A sorted build counts into hash maps and freezes them into SortedCounts
// when the scan ends: one-word keys into map[uint64]int, wider ones into a
// tally keyed by their record form. The row-factor guard
// keeps the dense kernel off sparse key spaces where zeroing and walking
// the flat array would dominate the scan itself.

// defaultDenseLimit is the largest mixed-radix key space the dense kernel
// will allocate a flat count array for: 1<<22 slots = 16 MiB of int32 per
// worker. The test hook CountOptions.denseLimitOverride overrides it.
const defaultDenseLimit = 1 << 22

// denseRowFactor bounds how sparse a dense array may be relative to the
// scan: the key space may exceed the row count by at most this factor
// (plus a small absolute floor so tiny datasets still take the fast path).
const denseRowFactor = 16

// denseLimit resolves the effective dense threshold: 0 means
// defaultDenseLimit, negative disables the dense kernel entirely.
func (o CountOptions) denseLimit() int {
	if o.denseLimitOverride == 0 {
		return defaultDenseLimit
	}
	if o.denseLimitOverride < 0 {
		return 0
	}
	return o.denseLimitOverride
}

// denseSpaceOK is THE dense-eligibility predicate: a flat count space of
// the given size is worth allocating for a rows-sized scan iff it fits
// the slot limit and is not vastly sparser than the scan, and no int32
// count can overflow. Kernel selection (denseRadix) and the sizing
// kernel's per-set accumulators (LabelSizes) share it, so a set's label
// size is counted on the representation its PC would get.
func denseSpaceOK(space uint64, rows, limit int) bool {
	return limit > 0 && rows <= math.MaxInt32 && space <= uint64(limit) && space <= uint64(rows)*denseRowFactor+64
}

// denseRadix reports whether the dense kernel applies to a keyer over a
// rows-sized scan under the given slot limit, and if so the flat array
// length.
func denseRadix(k *Keyer, rows, limit int) (radix int, ok bool) {
	r, fits := k.Radix()
	if !fits || !denseSpaceOK(r, rows, limit) {
		return 0, false
	}
	return int(r), true
}

// keyBlockRows is the row-block granularity of the columnar key-vector
// decode: small enough that the block's key vector and column slices stay
// cache-resident, large enough to amortize the per-block bookkeeping.
const keyBlockRows = 4096

// addKeysDense counts a key vector into a flat array, returning the updated
// nonzero-slot count. InvalidKey entries (NULL rows) are skipped.
//
// The loop is the hottest instruction stream of the dense kernel, so it is
// hand-shaped: valid keys are always < len(counts) (the keyer's radix) and
// InvalidKey is ^0, so a single `key < n` compare both filters NULL rows
// and lets the compiler drop the bounds check on the gather-increment; the
// body is unrolled four keys per iteration to hide the load-increment-store
// latency behind the next key's load. Increments run strictly in key-vector
// order, so duplicate keys within one block alias correctly.
// BenchmarkDenseCount pins the win over the straight-line reference loop.
func addKeysDense(counts []int32, keys []uint64, distinct int) int {
	n := uint64(len(counts))
	i := 0
	for ; i+4 <= len(keys); i += 4 {
		k0, k1, k2, k3 := keys[i], keys[i+1], keys[i+2], keys[i+3]
		if k0 < n {
			if counts[k0] == 0 {
				distinct++
			}
			counts[k0]++
		}
		if k1 < n {
			if counts[k1] == 0 {
				distinct++
			}
			counts[k1]++
		}
		if k2 < n {
			if counts[k2] == 0 {
				distinct++
			}
			counts[k2]++
		}
		if k3 < n {
			if counts[k3] == 0 {
				distinct++
			}
			counts[k3]++
		}
	}
	for ; i < len(keys); i++ {
		if k := keys[i]; k < n {
			if counts[k] == 0 {
				distinct++
			}
			counts[k]++
		}
	}
	return distinct
}

// addKeysMap counts a key vector into a hash map.
func addKeysMap(m map[uint64]int, keys []uint64) {
	for _, key := range keys {
		if key != InvalidKey {
			m[key]++
		}
	}
}

// buildPCDense is the dense BuildPC kernel: each worker counts its row
// chunk into a private flat array via columnar key vectors, and shards are
// merged by vector addition. The result slab is always a fresh allocation
// (the PC owns it indefinitely); with a pool attached, the extra per-worker
// shard slabs and the key-block scratch are drawn from the free lists and
// returned after the merge, so bytes allocated per build stay near the
// single result slab for every worker count instead of growing by a full
// radix-sized array per worker.
func buildPCDense(k *Keyer, cols [][]uint16, rows, radix, workers int, pool *VecPool, stop ctxStop) *PC {
	pc := &PC{keyer: k}
	if workers <= 1 {
		counts := make([]int32, radix)
		// Plain make, not the pool: the constant-size scratch stays
		// stack-allocated on the (common) poolless path.
		keys := make([]uint64, keyBlockRows)
		distinct := 0
		for lo := 0; lo < rows; lo += keyBlockRows {
			if stop.hit() {
				break
			}
			hi := min(lo+keyBlockRows, rows)
			k.KeyBlock(cols, lo, hi, keys)
			distinct = addKeysDense(counts, keys[:hi-lo], distinct)
		}
		pc.dz, pc.distinct = counts, distinct
		return pc
	}
	merged := make([]int32, radix) // the PC's slab; worker 0 fills it in place
	shards := make([][]int32, workers)
	workpool.RunChunks(rows, workers, func(w, lo, hi int) {
		counts := merged
		if w > 0 {
			counts = pool.Int32(radix, true)
		}
		keys := pool.Uint64(keyBlockRows, false)
		for blo := lo; blo < hi; blo += keyBlockRows {
			if stop.hit() {
				break
			}
			bhi := min(blo+keyBlockRows, hi)
			k.KeyBlock(cols, blo, bhi, keys)
			addKeysDense(counts, keys[:bhi-blo], 0)
		}
		pool.PutUint64(keys)
		shards[w] = counts
	})
	for _, shard := range shards[1:] {
		for i, c := range shard {
			merged[i] += c
		}
		pool.PutInt32(shard)
	}
	distinct := 0
	for _, c := range merged {
		if c != 0 {
			distinct++
		}
	}
	pc.dz, pc.distinct = merged, distinct
	return pc
}

// buildPCSorted is the BuildPC kernel beyond the dense tier. For one-word
// keys each worker counts its row chunk into a hash map, fed by the same
// columnar key vectors as the dense kernel, and the merged map freezes
// into the sorted layout.
func buildPCSorted(k *Keyer, cols [][]uint16, rows, workers int, stop ctxStop) *PC {
	if k.Words() > 1 {
		return buildPCWide(k, cols, rows, workers, stop)
	}
	pc := &PC{keyer: k}
	if workers <= 1 {
		m := make(map[uint64]int)
		keys := make([]uint64, keyBlockRows)
		for lo := 0; lo < rows; lo += keyBlockRows {
			if stop.hit() {
				break
			}
			hi := min(lo+keyBlockRows, rows)
			k.KeyBlock(cols, lo, hi, keys)
			addKeysMap(m, keys[:hi-lo])
		}
		pc.u = sortedFromMap(m)
		return pc
	}
	shards := make([]map[uint64]int, workers)
	workpool.RunChunks(rows, workers, func(w, lo, hi int) {
		m := make(map[uint64]int)
		keys := make([]uint64, keyBlockRows)
		for blo := lo; blo < hi; blo += keyBlockRows {
			if stop.hit() {
				break
			}
			bhi := min(blo+keyBlockRows, hi)
			k.KeyBlock(cols, blo, bhi, keys)
			addKeysMap(m, keys[:bhi-blo])
		}
		shards[w] = m
	})
	merged := shards[0]
	for _, m := range shards[1:] {
		for key, c := range m {
			merged[key] += c
		}
	}
	pc.u = sortedFromMap(merged)
	return pc
}

// buildPCWide is buildPCSorted for keys of more than one word: each worker
// counts its rows' keys in record form into a tally, which allocates once
// per distinct key, so its memory grows with the distinct keys, and the
// tallies' entries freeze into the layout together, which sums a key
// several workers counted.
func buildPCWide(k *Keyer, cols [][]uint16, rows, workers int, stop ctxStop) *PC {
	shards := make([]*tally, max(workers, 1))
	for i := range shards {
		shards[i] = &tally{index: make(map[string]int32)}
	}
	workpool.RunChunks(rows, workers, func(wk, lo, hi int) {
		t := shards[wk]
		var buf []byte
		for blo := lo; blo < hi; blo += keyBlockRows {
			if stop.hit() {
				break
			}
			for r := blo; r < min(blo+keyBlockRows, hi); r++ {
				b, ok := k.appendRecordRow(buf[:0], cols, r)
				buf = b
				if ok {
					t.add(b)
				}
			}
		}
	})
	keys, counts := recordEntries(k.Words(), shards...)
	return &PC{keyer: k, u: sortedFrom(keys, counts, k.Words())}
}

// tally counts records with one allocation per distinct record: an index
// from a record to its slot of a counts slice. A record already counted
// costs a lookup by m[string(rec)], which does not allocate, and an
// increment; m[string(rec)]++ on a map[string]int allocates the string on
// every call. A count stays within int32: the engine counts at most
// math.MaxInt32 rows.
type tally struct {
	index  map[string]int32
	counts []int32
}

// add counts rec once.
func (t *tally) add(rec []byte) {
	if i, ok := t.index[string(rec)]; ok {
		t.counts[i]++
		return
	}
	t.index[string(rec)] = int32(len(t.counts))
	t.counts = append(t.counts, 1)
}

// ScanStats accumulates which kernel the engine picked per attribute set.
// Attach one via CountOptions.Stats to observe path selection. The
// Dense/Map/Wide planning counters are updated during single-threaded
// scan planning, never from workers; the Spill* counters are updated
// atomically (spillcount.go), so one ScanStats may be shared by scans
// running on concurrent goroutines.
type ScanStats struct {
	// Dense counts sets sized on the flat-array kernel.
	Dense int
	// Map counts sets sized in a hash set of one-word keys.
	Map int
	// Wide counts sets sized in a hash set of keys wider than one word
	// (the mixed-radix key space passes 63 bits).
	Wide int
	// Spilled counts sets served by the external-memory group-by: sets
	// beyond the dense tier whose estimated grouping footprint exceeded
	// CountOptions.MemBudget.
	Spilled int64
	// SpillRuns totals the on-disk partitions written across spilled sets.
	SpillRuns int64
	// SpillParallelRuns totals the runs counted by multi-worker (parallel)
	// run-counting phases; zero when every count phase ran sequentially.
	SpillParallelRuns int64
	// SpillBytes totals the bytes written to spill run files: partition
	// runs, plus the sorted runs a spilled build keeps.
	SpillBytes int64
	// SpillMaxRunEntries is the largest per-run distinct-key count any
	// spilled set's count observed — the quantity the run sizing bounds to
	// keep one run's count state within each count worker's share of
	// CountOptions.MemBudget.
	SpillMaxRunEntries int64
	// SpillMaxCountBytes is the largest count state any spilled set's
	// count held in one worker: the bytes of its entry buffer and sort
	// scratch, which stay within the worker's share of
	// CountOptions.MemBudget unless one run's distinct keys alone need
	// more.
	SpillMaxCountBytes int64
	// SpillFallbacks counts spill-tier scans that hit disk trouble and
	// fell back to the unbounded in-memory kernel: results stay correct,
	// but the memory budget was not honored for those sets.
	SpillFallbacks int64
	// SpillNoSpaceFallbacks counts the subset of SpillFallbacks caused by
	// disk exhaustion (the filesystem reported ENOSPC, surfaced as
	// spill.ErrNoSpace): the spill tier's partial runs were removed and the
	// set re-counted in memory. A climbing counter here means the spill
	// volume is full — the engine keeps answering exactly, but over budget.
	SpillNoSpaceFallbacks int64
	// RowsScanned totals the dataset rows fed through group-by counting
	// kernels (every buildPC invocation, whichever representation it
	// picked). Incremental-maintenance callers use it to assert that an
	// update counted only the appended suffix, not the full history.
	// Updated atomically: scans may share one ScanStats across goroutines.
	RowsScanned int64
}
