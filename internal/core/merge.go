package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/spill"
	"pcbl/internal/workpool"
)

// Incremental label maintenance: a delta label counted over only appended
// rows folds into an existing label without rescanning history. Every
// representation merges exactly — dense slabs by vector addition, sorted
// PCs by re-keying both sides as a rebuild over the union rows would, and
// spilled PCs run by run, each one linear two-way merge of a sorted base
// run with its share of the delta: the deterministic partition routing
// (spill.Runs.RunOf) sends every occurrence of a key to the same run, so
// base and delta occurrences of one pattern always count together.
// Sizes are monotone under merge (a pattern's count can only grow, a new
// pattern only adds), which is what makes the bound re-check at merge time
// exact: Merge completes fully and compares the final size against the
// bound — no partial-mutation abort is ever needed.

// SetCountOptions replaces the engine options the label uses for derived
// work — merges, lazy marginal materialization, spill rewrites. Labels
// built by BuildLabel inherit the build's options; labels reopened
// from an artifact start with defaults, and callers that merge into them
// (or serve them under a memory budget) configure the engine here before
// the first query. Not safe concurrently with queries.
func (l *Label) SetCountOptions(opts CountOptions) { l.copts = opts }

// sameKeyLayout reports whether two keyers produce identical encodings:
// same member attributes, multipliers and word radices, which holds
// exactly when every member's domain size is the same. When the delta's
// dataset introduced new values for a member attribute, the mixed-radix
// multipliers shift, or a member moves to another word, and keys from the
// two epochs are incomparable — the merge must then re-key through
// decoded value ids.
func sameKeyLayout(a, b *Keyer) bool {
	return slices.Equal(a.members, b.members) && slices.Equal(a.mult, b.mult) && slices.Equal(a.radix, b.radix)
}

// Merge folds a delta label — built over ONLY the appended rows, on the
// same attribute set — into l, so that l afterwards equals the label a full
// rebuild over base+delta rows would produce: identical counts for every
// pattern and identical size. The delta's dataset dictionaries must extend
// the base's (same attributes in order, each base domain a prefix of the
// delta's — exactly what dataset.ReadCSVAppend guarantees); value ids then
// mean the same thing in both epochs.
//
// bound re-verifies the label's size constraint at merge time: sizes are
// monotone under appends, so within = (size <= bound) is the exact cap
// semantics of the original build. bound < 0 skips the check. The merge
// always completes — a breached bound reports within=false with the true
// size rather than aborting half-merged.
//
// After a merge l's dataset is the delta's and l serves lazy marginals by
// summing the PC section (like an artifact-reopened label): the attached
// rows no longer cover history, so rescanning them would undercount.
// Materialized base marginals are merged when an exact delta counterpart
// is available (the delta label has rows to scan, or had the marginal
// materialized) and dropped otherwise. A union of more than
// math.MaxInt32 rows is refused with an error before anything changes.
// On any other error l is left in an unspecified state and must be
// discarded — those errors only arise from disk trouble on spilled
// representations.
func (l *Label) Merge(delta *Label, bound int) (size int, within bool, err error) {
	if delta == nil {
		return 0, false, fmt.Errorf("core: Merge with nil delta")
	}
	if l.attrs != delta.attrs {
		return 0, false, fmt.Errorf("core: Merge attribute sets differ: base %v, delta %v", l.attrs, delta.attrs)
	}
	if err := checkDomainsExtend(l.d, delta.d); err != nil {
		return 0, false, err
	}
	rows := l.rows + delta.rows
	if rows > math.MaxInt32 {
		return 0, false, errTooManyRows(rows)
	}

	mergedPC, err := mergePC(l.pc, delta.pc, delta.d, rows, l.copts)
	if err != nil {
		return 0, false, err
	}

	marginals, err := l.mergeMarginals(delta, rows)
	if err != nil {
		return 0, false, err
	}

	// Commit: VC sums elementwise (base arrays are a prefix of the delta's
	// under the dictionary-extension invariant), fracs derive from the sums.
	// The sums go into fresh slices: l's and delta's VC may be their
	// datasets' shared tables, which nothing writes.
	n := delta.d.NumAttrs()
	vc := make([][]int, n)
	fracs := make([][]float64, n)
	for a := 0; a < n; a++ {
		counts := append([]int(nil), delta.vc[a]...)
		for i, c := range l.vc[a] {
			counts[i] += c
		}
		vc[a], fracs[a] = counts, dataset.FractionsOf(counts)
	}

	l.mu.Lock()
	l.marginals = marginals
	l.mu.Unlock()
	l.pc = mergedPC
	l.d = delta.d
	l.rows = rows
	l.vc, l.fracs = vc, fracs
	l.fromPC = true

	size = l.pc.Size()
	return size, bound < 0 || size <= bound, nil
}

// checkDomainsExtend validates the dictionary-extension invariant: the
// delta dataset has the base's attributes in order, and each base domain is
// a prefix of the delta's, so value identifiers agree across epochs.
func checkDomainsExtend(base, delta *dataset.Dataset) error {
	if base.NumAttrs() != delta.NumAttrs() {
		return fmt.Errorf("core: Merge datasets have %d vs %d attributes", base.NumAttrs(), delta.NumAttrs())
	}
	for a := 0; a < base.NumAttrs(); a++ {
		ba, da := base.Attr(a), delta.Attr(a)
		if ba.Name() != da.Name() {
			return fmt.Errorf("core: Merge attribute %d named %q in base, %q in delta", a, ba.Name(), da.Name())
		}
		bd, dd := ba.Domain(), da.Domain()
		if len(bd) > len(dd) {
			return fmt.Errorf("core: Merge delta domain of %q has %d values, base has %d — delta must extend base", ba.Name(), len(dd), len(bd))
		}
		for i, v := range bd {
			if dd[i] != v {
				return fmt.Errorf("core: Merge delta domain of %q diverges from base at value %d (%q vs %q)", ba.Name(), i, dd[i], v)
			}
		}
	}
	return nil
}

// mergeMarginals produces the merged label's materialized-marginal cache: a
// base marginal survives when an exact delta counterpart exists (already
// materialized on the delta, or buildable from the delta's rows) and the
// two merge; otherwise it is dropped and re-derives lazily by summing the
// merged PC section — the existing NULL-exactness rule for fromPC labels.
func (l *Label) mergeMarginals(delta *Label, rows int) (map[lattice.AttrSet]*PC, error) {
	l.mu.Lock()
	base := make(map[lattice.AttrSet]*PC, len(l.marginals))
	for sub, pc := range l.marginals {
		base[sub] = pc
	}
	l.mu.Unlock()
	delta.mu.Lock()
	deltaMarginals := make(map[lattice.AttrSet]*PC, len(delta.marginals))
	for sub, pc := range delta.marginals {
		deltaMarginals[sub] = pc
	}
	delta.mu.Unlock()

	out := make(map[lattice.AttrSet]*PC, len(base))
	for sub, basePC := range base {
		dpc, ok := deltaMarginals[sub]
		if !ok {
			if delta.fromPC {
				basePC.ReleaseSpill()
				continue
			}
			var err error
			if dpc, err = BuildPC(delta.d, sub, delta.copts); err != nil {
				return nil, err
			}
		}
		merged, err := mergePC(basePC, dpc, delta.d, rows, l.copts)
		if err != nil {
			return nil, err
		}
		out[sub] = merged
	}
	return out, nil
}

// mergePC merges a delta index into a base index over the same attribute
// set, returning the index a build over the union rows would answer: the
// per-key sum of the two. A dense base is reused (and mutated) when its
// key encoding is still valid over the union dictionaries d; otherwise
// both indexes stream into a fresh representation keyed over d.
// The delta streams via EachCtx regardless of its own representation —
// including merge-on-read spilled deltas.
func mergePC(base, delta *PC, d *dataset.Dataset, rows int, opts CountOptions) (*PC, error) {
	k := NewKeyer(d, base.Attrs())
	n := d.NumAttrs()
	if base.sp != nil {
		return mergeSpilled(base, delta, k, n, rows, opts)
	}
	if base.dz != nil && sameKeyLayout(base.keyer, k) {
		out := &PC{keyer: k, dz: base.dz, distinct: base.distinct}
		if err := delta.EachCtx(nil, n, func(vals []uint16, c int) bool {
			if key, ok := k.KeyVals(vals); ok {
				if out.dz[key] == 0 {
					out.distinct++
				}
				out.dz[key] += int32(c)
			}
			return true
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	// A sorted base, or a dense one whose encoding shifted (delta grew a
	// member domain): stream both epochs into a fresh index with the
	// representation a rebuild over the union rows would pick (minus the
	// spill tier — the merged result materializes in memory here; spilled
	// bases take the run-level path above).
	return mergeRekey(nil, k, n, rows, opts, base, delta)
}

// mergeRekey streams any number of indexes into a fresh index keyed by k,
// choosing dense or sorted as a build over rows would; it is the body of a
// re-keying merge and of MarginalizeCtx. A fired ctx returns the typed
// context error and no index.
func mergeRekey(ctx context.Context, k *Keyer, n, rows int, opts CountOptions, parts ...*PC) (*PC, error) {
	out := &PC{keyer: k}
	if radix, ok := denseRadix(k, rows, opts.denseLimit()); ok {
		counts := make([]int32, radix)
		distinct := 0
		for _, pc := range parts {
			if err := pc.EachCtx(ctx, n, func(vals []uint16, c int) bool {
				if key, ok := k.KeyVals(vals); ok {
					if counts[key] == 0 {
						distinct++
					}
					counts[key] += int32(c)
				}
				return true
			}); err != nil {
				return nil, err
			}
		}
		out.dz, out.distinct = counts, distinct
		return out, nil
	}
	u, err := rekeySorted(ctx, k, n, parts...)
	if err != nil {
		return nil, err
	}
	out.u = u
	return out, nil
}

// rekeySorted streams the indexes' entries, re-keyed by k to its W words,
// into the sorted layout: one radix sort-and-compress, no hash map. A
// fired ctx returns the typed context error.
func rekeySorted(ctx context.Context, k *Keyer, n int, parts ...*PC) (*SortedCounts, error) {
	total := 0
	for _, pc := range parts {
		total += pc.Size()
	}
	keys := make([]uint64, 0, k.Words()*total)
	counts := make([]int32, 0, total)
	for _, pc := range parts {
		if err := pc.EachCtx(ctx, n, func(vals []uint16, c int) bool {
			var ok bool
			if keys, ok = k.appendKey(keys, vals); ok {
				counts = append(counts, count32(c))
			}
			return true
		}); err != nil {
			return nil, err
		}
	}
	return sortedFrom(keys, counts, k.Words()), nil
}

// mergeSpilled merges a delta into a merge-on-read base. The base's runs
// are sorted and its keys keep their meaning unless a member domain grew,
// so the usual merge is one linear two-way merge per run: the delta's
// entries are routed to their runs and sorted, and each base run streams
// through a merge with its share of the delta into a fresh run file.
// Fresh files leave the base's untouched — an artifact-owned base's
// committed manifest keeps describing its run files exactly — and are
// written under opts.SpillDir. When the delta grew a member domain the
// keys shift (a multiplier changes, or a member moves to another word), so
// every key changes run: base and delta re-partition through the build's
// count-and-write step instead (mergeSpilledRekey).
//
// Either way the merged size is re-checked against the base's budget
// with countAndSeal's criterion: a merge that fits (in practice, a caller
// that granted more memory) materializes in memory and releases the runs;
// otherwise the result stays spilled behind a fresh merge-on-read view.
// opts.Ctx cancels the merge; a cancelled or failed merge leaves no new
// run file behind and the base unreleased.
func mergeSpilled(base, delta *PC, k *Keyer, n, rows int, opts CountOptions) (*PC, error) {
	sp := base.sp
	budget := mergeBudget(sp, opts)
	if !sameKeyLayout(base.keyer, k) {
		return mergeSpilledRekey(sp, base.keyer, delta, k, n, rows, budget, opts)
	}
	rs, err := spill.NewRuns(opts.SpillDir, k.Words(), sp.runs.NumRuns(), opts.FS)
	if err != nil {
		return nil, err
	}
	keep := false
	defer func() {
		if !keep {
			rs.Cleanup()
		}
	}()
	if err := mergeRuns(opts.Ctx, sp, rs, delta, k, n, opts.scanWorkers(rows)); err != nil {
		return nil, err
	}
	runSizes := make([]int, rs.NumRuns())
	size := 0
	for run := range runSizes {
		runSizes[run] = rs.Entries(run)
		size += runSizes[run]
	}
	out := &PC{keyer: k}
	if int64(size)*k.entryBytes() <= budget {
		if out.u, err = loadRuns(opts.Ctx, rs, size); err != nil {
			return nil, err
		}
		sp.release()
		return out, nil
	}
	sp.release()
	keep = true
	out.sp = newSpilledPC(rs, k, size, runSizes, budget, opts.Stats)
	return out, nil
}

// mergeRuns writes every run of out as the linear two-way merge of the
// base's run with the delta's entries routed to it. Base keys are read
// under the base's layout, which the caller checked is k's. Runs are
// independent, so workers merge them in parallel.
func mergeRuns(ctx context.Context, sp *spilledPC, out *spill.Runs, delta *PC, k *Keyer, n, workers int) error {
	runs := sp.runs.NumRuns()
	dkeys := make([][]uint64, runs)
	dcounts := make([][]int32, runs)
	var key []uint64
	if err := delta.EachCtx(ctx, n, func(vals []uint16, c int) bool {
		var ok bool
		if key, ok = k.appendKey(key[:0], vals); ok {
			r := sp.runs.RunOf(key)
			dkeys[r] = append(dkeys[r], key...)
			dcounts[r] = append(dcounts[r], count32(c))
		}
		return true
	}); err != nil {
		return err
	}
	return eachRun(runs, workers, func(run int) error {
		d := sortedFrom(dkeys[run], dcounts[run], k.Words())
		rw := out.RunWriter(run)
		i := 0
		var bad error
		err := sp.runs.Each(ctx, run, func(key []uint64, c int) bool {
			if !k.validKey(key) {
				bad = runCorrupt(run, "key %v outside the key space %v", key, k.radix)
				return false
			}
			for ; i < len(d.Counts) && slices.Compare(d.entry(i), key) < 0; i++ {
				rw.Add(d.entry(i), int(d.Counts[i]))
			}
			if i < len(d.Counts) && slices.Equal(d.entry(i), key) {
				c += int(d.Counts[i])
				i++
			}
			rw.Add(key, c)
			return true
		})
		for ; i < len(d.Counts); i++ {
			rw.Add(d.entry(i), int(d.Counts[i]))
		}
		return cmp.Or(err, bad, rw.Close())
	})
}

// eachRun calls fn for every run, the runs split across workers, and
// returns the first error in run order; a worker stops at its first.
func eachRun(runs, workers int, fn func(run int) error) error {
	errs := make([]error, runs)
	workpool.RunChunks(runs, workpool.Resolve(workers, runs), func(_, lo, hi int) {
		for run := lo; run < hi; run++ {
			if errs[run] = fn(run); errs[run] != nil {
				return
			}
		}
	})
	return cmp.Or(errs...)
}

// mergeSpilledRekey merges a delta that grew a member domain into a
// spilled base: the base's entries decode under its own layout and re-key
// under k's — possibly of more words — and, with the delta's,
// re-partition as one record per counted row into a fresh partition
// writer, whose runs countAndSeal counts and seals as a build does.
func mergeSpilledRekey(sp *spilledPC, baseKeyer *Keyer, delta *PC, k *Keyer, n, rows int, budget int64, opts CountOptions) (*PC, error) {
	w, err := spill.NewWriter(spill.Config{
		RecWidth: 8 * k.Words(),
		Runs:     sp.runs.NumRuns(),
		Dir:      opts.SpillDir,
		Pool:     opts.Pool,
		FS:       opts.FS,
	})
	if err != nil {
		return nil, err
	}
	defer w.Cleanup()
	sw := w.Shard()
	var nk []uint64
	var rec []byte
	add := func(vals []uint16, c int) {
		var ok bool
		if nk, ok = k.appendKey(nk[:0], vals); ok {
			rec = appendRecord(rec[:0], nk)
			for ; c > 0; c-- {
				sw.Add(rec)
			}
		}
	}
	vals := make([]uint16, n)
	var werr error
	for run := 0; run < sp.runs.NumRuns() && werr == nil; run++ {
		var bad error
		err := sp.runs.Each(opts.Ctx, run, func(key []uint64, c int) bool {
			if !baseKeyer.validKey(key) {
				bad = runCorrupt(run, "key %v outside the key space %v", key, baseKeyer.radix)
				return false
			}
			baseKeyer.decodeKey(key, vals)
			add(vals, c)
			return true
		})
		werr = cmp.Or(err, bad)
	}
	if werr == nil {
		werr = delta.EachCtx(opts.Ctx, n, func(dvals []uint16, c int) bool {
			add(dvals, c)
			return true
		})
	}
	if err := sw.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		return nil, werr
	}
	out, err := countAndSeal(w, k, opts.scanWorkers(rows), budget, opts)
	if err != nil {
		return nil, err
	}
	sp.release()
	return out, nil
}

// mergeBudget is the memory budget the merge-time footprint re-check runs
// against: the label's current engine options when they set one (so a
// caller that grants more memory via SetCountOptions can let a merge
// materialize a previously spilled PC), else the budget captured when the
// PC first spilled.
func mergeBudget(sp *spilledPC, opts CountOptions) int64 {
	if opts.MemBudget > 0 {
		return opts.MemBudget
	}
	return sp.budget
}

// loadRuns materializes every entry of rs, size in all, into the sorted
// layout of its W-word keys.
func loadRuns(ctx context.Context, rs *spill.Runs, size int) (*SortedCounts, error) {
	w := rs.Words()
	keys := make([]uint64, 0, w*size)
	counts := make([]int32, 0, size)
	for run := range rs.NumRuns() {
		if err := rs.Each(ctx, run, func(key []uint64, c int) bool {
			keys = append(keys, key...)
			counts = append(counts, int32(c))
			return true
		}); err != nil {
			return nil, err
		}
	}
	return sortedFrom(keys, counts, w), nil
}
