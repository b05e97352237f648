package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// PC is a pattern-count index: the set P_S of all patterns over an attribute
// set S with positive count, together with their counts (the PC section of a
// label, Definition 2.9). It is the group-by of the dataset on S.
//
// Three storage representations share the PC interface; the kernel
// selection rules in dense.go pick one deterministically from the key
// space, the row count and the memory budget: a flat dense count array for
// small-domain sets, sorted keys of W words with parallel counts
// (SortedCounts) for larger key spaces, and a merge-on-read spilled index
// (spilledpc.go) when a budgeted build's merged map models over
// CountOptions.MemBudget — the counts then stay in the build's on-disk
// runs and stream on demand, each run cached in the same sorted layout
// once read.
type PC struct {
	keyer    *Keyer
	dz       []int32       // dense path (flat counts indexed by key)
	distinct int           // nonzero slots in dz
	u        *SortedCounts // sorted path (W-word keys)
	sp       *spilledPC    // merge-on-read path (budgeted out-of-core builds)
}

// BuildPC groups dataset d by attribute set s and returns the pattern-count
// index. Rows with NULL in any attribute of s belong to no pattern over s
// and are skipped. The kernel selection rules in dense.go pick the
// representation; the scan is sharded across opts.Workers (Workers: 1 is
// the sequential scan), each worker grouping its row chunk into private
// state that merges afterwards — vector addition for dense shards, map
// union otherwise — so the result is identical for every worker count.
//
// An error is opts.Ctx firing mid-build (the typed context error): the
// build stops cleanly — spill temp directories removed, pooled slabs
// returned — and a partially counted PC is never produced. The only other
// error is a dataset of more than math.MaxInt32 rows, whose counts the
// int32 layouts cannot hold. Disk trouble on the spill tier degrades to
// the in-memory kernels internally and never surfaces here.
func BuildPC(d *dataset.Dataset, s lattice.AttrSet, opts CountOptions) (*PC, error) {
	rows := d.NumRows()
	if rows > math.MaxInt32 {
		return nil, errTooManyRows(rows)
	}
	k := NewKeyer(d, s)
	cols := datasetCols(d)
	workers := opts.scanWorkers(rows)
	if opts.Stats != nil {
		atomic.AddInt64(&opts.Stats.RowsScanned, int64(rows))
	}
	stop := opts.stop()
	var pc *PC
	if radix, ok := denseRadix(k, rows, opts.denseLimit()); ok {
		pc = buildPCDense(k, cols, rows, radix, workers, opts.Pool, stop)
	} else if runs, spillOK := opts.spillFor(k, rows, workers); spillOK {
		return buildPCSpill(k, cols, rows, workers, runs, opts)
	} else {
		pc = buildPCSorted(k, cols, rows, workers, stop)
	}
	// A cancelled kernel stopped mid-scan: its counts are partial, so the
	// PC is discarded and only the typed error escapes.
	if err := stop.err(); err != nil {
		return nil, err
	}
	return pc, nil
}

// errTooManyRows reports a PC over more rows than an int32 count holds:
// the dense and sorted layouts store int32 counts, and any count may reach
// the row count.
func errTooManyRows(rows int) error {
	return fmt.Errorf("core: %d rows exceed the %d a pattern count holds", rows, math.MaxInt32)
}

// Attrs returns the attribute set S the index covers.
func (pc *PC) Attrs() lattice.AttrSet { return pc.keyer.Attrs() }

// Size returns |P_S| — the number of positive-count patterns over S. This is
// the label size the bound B_s of the optimal-label problem constrains.
func (pc *PC) Size() int {
	if pc.sp != nil {
		return pc.sp.size
	}
	if pc.dz != nil {
		return pc.distinct
	}
	return len(pc.u.Counts)
}

// Spilled reports whether the index is merge-on-read: its counts live in
// retained on-disk spill runs rather than an in-memory map. Call
// ReleaseSpill when done with such an index to remove the runs eagerly
// (the GC removes them eventually otherwise).
func (pc *PC) Spilled() bool { return pc.sp != nil }

// ReleaseSpill removes the on-disk runs behind a merge-on-read index; it
// is a no-op for in-memory representations and idempotent. Using a
// released spilled index panics.
func (pc *PC) ReleaseSpill() {
	if pc != nil && pc.sp != nil {
		pc.sp.release()
	}
}

// SpillReadStats reports the read-path counters of a merge-on-read index:
// lock-free pinned-run hits, floating-slot hits, and run-file loads. ok is
// false for in-memory representations, which have no read path to meter.
func (pc *PC) SpillReadStats() (stats SpillReadStats, ok bool) {
	if pc == nil || pc.sp == nil {
		return SpillReadStats{}, false
	}
	return pc.sp.readStats(), true
}

// LookupValsCtx returns the count of the pattern whose member values
// appear in the dense identifier slice vals; 0 when the pattern is absent
// (count 0) or any member slot is NULL. Use a marginal PC (see Label) for
// patterns that leave part of S unconstrained.
//
// In-memory representations never fail. A merge-on-read index reads run
// files on demand, and a read that fails — an I/O error or a checksum
// mismatch, after one bounded retry — returns the error instead of a wrong
// count. ctx bounds that work: an already-fired context is refused at
// entry, and a cache miss loads its run file with ctx checked once per
// frame of at most 4,096 entries; a fired context returns the typed
// context error. A nil ctx never cancels.
func (pc *PC) LookupValsCtx(ctx context.Context, vals []uint16) (int, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	if pc.sp != nil {
		return pc.sp.lookupValsE(ctx, vals)
	}
	return pc.lookupVals(vals), nil
}

// lookupVals is LookupValsCtx for the in-memory representations, which
// cannot fail.
func (pc *PC) lookupVals(vals []uint16) int {
	if pc.dz != nil {
		key, ok := pc.keyer.KeyVals(vals)
		if !ok {
			return 0
		}
		return int(pc.dz[key])
	}
	var buf [8]uint64
	key, ok := pc.keyer.appendKey(buf[:0], vals)
	if !ok {
		return 0
	}
	return pc.u.lookupKey(key)
}

// EachCtx invokes fn for every stored pattern, passing a dense identifier
// slice (valid only for the duration of the call) and the pattern's count.
// Iteration stops early when fn returns false. An in-memory index walks in
// key order; a merge-on-read one walks each run in key order, run by run.
//
// On a merge-on-read index a failed run read aborts the iteration and
// returns the error; fn has then seen a prefix of the entries — discard
// any partial aggregation. ctx is refused at entry when already fired and,
// on a merge-on-read index, checked at every run boundary and inside each
// run's file scan, so abandoning a long streaming pass stops within one
// run quantum with the typed context error. Past the entry check,
// in-memory representations iterate without consulting ctx. A nil ctx
// never cancels.
func (pc *PC) EachCtx(ctx context.Context, n int, fn func(vals []uint16, count int) bool) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if pc.sp != nil {
		return pc.sp.eachE(ctx, n, fn)
	}
	vals := make([]uint16, n)
	if pc.dz != nil {
		for key, c := range pc.dz {
			if c == 0 {
				continue
			}
			pc.keyer.Decode(uint64(key), vals)
			if !fn(vals, int(c)) {
				return nil
			}
		}
		return nil
	}
	for i, c := range pc.u.Counts {
		pc.keyer.decodeKey(pc.u.entry(i), vals)
		if !fn(vals, int(c)) {
			return nil
		}
	}
	return nil
}

// EachE is EachCtx with a nil ctx. It remains because cmd/pcblbench calls
// it, and that benchmark's sources stay fixed so its runs compare across
// commits; new code calls EachCtx.
func (pc *PC) EachE(n int, fn func(vals []uint16, count int) bool) error {
	return pc.EachCtx(nil, n, fn)
}

// MarginalizeCtx returns the PC over sub ⊆ S computed by summing this
// index's entries — no dataset rescan. Counts of rows that were NULL in
// S \ sub are not recovered (they never entered this index); a Label
// therefore builds marginals from the dataset when NULLs may matter, and
// from the parent PC otherwise. For NULL-free datasets the two agree
// (tested). Summing a merge-on-read parent reads run files: a failed read
// returns the error and no index, and ctx is checked at run boundaries; a
// fired context returns the typed context error and no index. A nil ctx
// never cancels.
func (pc *PC) MarginalizeCtx(ctx context.Context, d *dataset.Dataset, sub lattice.AttrSet) (*PC, error) {
	return mergeRekey(ctx, NewKeyer(d, sub), d.NumAttrs(), d.NumRows(), CountOptions{}, pc)
}

// labelSize is the sequential label-size loop: |P_S| for attribute set s,
// the size a label built on s would have (paper line 6 of Algorithm 1:
// labelSize(c, D)). When cap >= 0 and the distinct count exceeds cap,
// counting aborts and it returns (cap+1, false): the caller only needs to
// know the bound was breached. On NULL-free data label sizes are monotone
// in S (refining a grouping can only split groups), which is what makes
// Algorithm 1's subtree pruning sound; with NULLs they are not (see
// LabelSize). No caller uses it: it is the oracle the differential tests
// compare LabelSizes against.
func labelSize(d *dataset.Dataset, s lattice.AttrSet, cap int) (size int, within bool) {
	k := NewKeyer(d, s)
	cols := datasetCols(d)
	if k.Words() == 1 {
		seen := make(map[uint64]struct{})
		for r := 0; r < d.NumRows(); r++ {
			key, ok := k.KeyRow(cols, r)
			if !ok {
				continue
			}
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				if cap >= 0 && len(seen) > cap {
					return cap + 1, false
				}
			}
		}
		return len(seen), true
	}
	seen := make(map[string]struct{})
	var buf []byte
	for r := 0; r < d.NumRows(); r++ {
		b, ok := k.appendRecordRow(buf[:0], cols, r)
		buf = b
		if !ok {
			continue
		}
		if _, dup := seen[string(b)]; !dup {
			seen[string(b)] = struct{}{}
			if cap >= 0 && len(seen) > cap {
				return cap + 1, false
			}
		}
	}
	return len(seen), true
}

// datasetCols gathers the raw columns once so hot loops avoid repeated
// method calls.
func datasetCols(d *dataset.Dataset) [][]uint16 {
	cols := make([][]uint16, d.NumAttrs())
	for i := range cols {
		cols[i] = d.Col(i)
	}
	return cols
}
