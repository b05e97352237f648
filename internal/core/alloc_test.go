package core

// Allocation-regression pins for the pooled engine: steady-state sibling
// group sizing and pooled dense PC builds must run in a near-constant
// number of small allocations — planning slices and keyer metadata, never
// per-row or per-key-space slabs. The bounds are deliberately loose (2×-ish
// headroom over measured values) so they catch a lost pooling path, not
// compiler noise. Label builds are pinned exactly: their allocations must
// not grow with the dataset's attribute count.

import (
	"runtime"
	"testing"

	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// TestAllocsSiblingGroup pins the steady-state allocations of sizing one
// sibling group: after warmup every slab (child accumulators, key-block
// scratch) comes from the pool, leaving only the per-call planning slices.
func TestAllocsSiblingGroup(t *testing.T) {
	cfg := diffConfig{rows: 5000, attrs: 6, domain: 4, nullRate: 0}
	d := diffDataset(t, cfg, 41)
	siblings := lattice.NewAttrSet(0, 1).Gen(cfg.attrs) // {0,1,2} … {0,1,5}
	opts := CountOptions{Workers: 1, Pool: NewVecPool(0)}
	must2(LabelSizes(d, siblings, -1, opts)) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		must2(LabelSizes(d, siblings, -1, opts))
	})
	// Measured 15 (results, planning slices, the parent's keyer, column
	// table, accumulators, active list); anything near the child count ×
	// key space means pooling broke.
	if allocs > 25 {
		t.Fatalf("sibling group allocs/run = %.0f, want <= 25", allocs)
	}
}

// TestAllocsBuildPCParallelPooled pins the pooled dense build: allocations
// stay flat in the worker count up to goroutine bookkeeping, and allocated
// bytes stay near the single result slab — the per-worker full-radix
// shards of the unpooled path must come from the pool.
func TestAllocsBuildPCParallelPooled(t *testing.T) {
	cfg := diffConfig{rows: 20000, attrs: 4, domain: 8, nullRate: 0}
	d := diffDataset(t, cfg, 43)
	full := lattice.FullSet(cfg.attrs)
	pool := NewVecPool(0)
	radix := 8 * 8 * 8 * 8

	var scan ScanStats
	seq := CountOptions{Workers: 1, Pool: pool, Stats: &scan}
	must(BuildPC(d, full, seq)) // warm
	allocs := testing.AllocsPerRun(10, func() {
		must(BuildPC(d, full, seq))
	})
	// Measured ~9 (PC + result slab + keyer metadata + column table).
	if allocs > 20 {
		t.Fatalf("pooled sequential build allocs/run = %.0f, want <= 20", allocs)
	}

	par := CountOptions{Workers: 4, Pool: pool, Stats: &scan, minRowsPerWorker: 1}
	must(BuildPC(d, full, par)) // warm (populates per-worker shard slabs)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		must(BuildPC(d, full, par))
	}
	runtime.ReadMemStats(&after)
	perOp := int64(after.TotalAlloc-before.TotalAlloc) / runs
	// The result slab (radix × 4B) dominates; shards and scratch recycle.
	// 3× headroom over it still sits far below the unpooled 4-worker cost
	// (~4 × radix × 4B plus scratch).
	if limit := int64(radix)*4*3 + 8192; perOp > limit {
		t.Fatalf("pooled workers=4 build allocates %d B/op, want <= %d", perOp, limit)
	}
	// These in-memory workloads must never touch the external spill tier
	// (no MemBudget is set, and the key spaces are uint64-bounded anyway).
	if scan.Spilled != 0 || scan.SpillRuns != 0 || scan.SpillBytes != 0 {
		t.Fatalf("in-memory alloc workload spilled: %+v", scan)
	}
}

// TestAllocsBuildLabelFlatInAttrs pins the shared VC table: once the
// dataset's table is filled, a label build over S = {0, 1} allocates the
// same on the 24-attribute Credit Card dataset as on its 3-attribute
// prefix. Recounting VC per label cost 3 allocations per attribute.
func TestAllocsBuildLabelFlatInAttrs(t *testing.T) {
	wide, err := datagen.CreditCard(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := wide.Prefix(3)
	if err != nil {
		t.Fatal(err)
	}
	s := lattice.NewAttrSet(0, 1)
	allocs := func(d *dataset.Dataset) float64 {
		must(BuildLabel(d, s, CountOptions{Workers: 1})) // fills the table
		return testing.AllocsPerRun(20, func() { must(BuildLabel(d, s, CountOptions{Workers: 1})) })
	}
	w, n := allocs(wide), allocs(narrow)
	if w != n {
		t.Fatalf("BuildLabel allocs/run: %.0f on %d attributes, %.0f on %d; want equal", w, wide.NumAttrs(), n, narrow.NumAttrs())
	}
}

// TestAllocsEstimateRow pins Definition 2.11's estimate allocation-free on
// a warmed in-memory label, for patterns that reach outside S over all of
// S, over part of it (a cached marginal) and over none of it. Collecting
// Attr(p) ∖ S into a slice cost one allocation an estimate.
func TestAllocsEstimateRow(t *testing.T) {
	d, err := datagen.COMPAS(3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := must(BuildLabel(d, lattice.NewAttrSet(0, 1), CountOptions{Workers: 1}))
	row := d.Row(0)
	patterns := []lattice.AttrSet{lattice.NewAttrSet(0, 1, 2, 3), lattice.NewAttrSet(0, 2, 3), lattice.NewAttrSet(2, 3)}
	for _, attrs := range patterns {
		if l.EstimateRow(row, attrs) == 0 { // also builds the marginal
			t.Fatalf("pattern %v of row 0 estimated 0: the product is never reached", attrs)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, attrs := range patterns {
			l.EstimateRow(row, attrs)
		}
	})
	if allocs != 0 {
		t.Fatalf("EstimateRow allocs/run = %v over %d patterns, want 0", allocs, len(patterns))
	}
}
