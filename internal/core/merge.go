package core

import (
	"context"
	"encoding/binary"
	"fmt"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/spill"
)

// Incremental label maintenance: a delta label counted over only appended
// rows folds into an existing label without rescanning history. Every
// representation merges exactly — dense slabs by vector addition, map PCs
// by key union, and spilled PCs run-by-run: the deterministic partition
// routing (spill.RunOf) sends every occurrence of a key to the same run,
// so base and delta occurrences of one pattern always count together.
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
// same member attributes and same per-member domain sizes. When the delta's
// dataset introduced new values for a member attribute, the mixed-radix
// multipliers shift and u64/dense keys from the two epochs are incomparable
// — the merge must then re-key through decoded value ids. Byte-string keys
// encode raw ids and never change meaning as domains grow.
func sameKeyLayout(a, b *Keyer) bool {
	if len(a.dims) != len(b.dims) {
		return false
	}
	for i := range a.dims {
		if a.dims[i] != b.dims[i] || a.members[i] != b.members[i] {
			return false
		}
	}
	return true
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
// materialized) and dropped otherwise. On error l is left in an
// unspecified state and must be discarded — errors only arise from disk
// trouble on spilled representations.
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
// per-key sum of the two. The base representation is reused (and mutated)
// when its key encoding is still valid over the union dictionaries d;
// otherwise both indexes stream into a fresh representation keyed over d.
// The delta streams via EachCtx regardless of its own representation —
// including merge-on-read spilled deltas.
func mergePC(base, delta *PC, d *dataset.Dataset, rows int, opts CountOptions) (*PC, error) {
	k := NewKeyer(d, base.Attrs())
	n := d.NumAttrs()
	if base.sp != nil {
		return mergeSpilled(base, delta, k, n, rows, opts)
	}
	switch {
	case base.dz != nil && sameKeyLayout(base.keyer, k):
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
	case base.u != nil && sameKeyLayout(base.keyer, k):
		out := &PC{keyer: k, u: base.u}
		if err := delta.EachCtx(nil, n, func(vals []uint16, c int) bool {
			if key, ok := k.KeyVals(vals); ok {
				out.u[key] += c
			}
			return true
		}); err != nil {
			return nil, err
		}
		return out, nil
	case base.s != nil:
		// Byte-string keys encode raw value ids: domain growth never
		// invalidates them, so the base map always absorbs the delta.
		out := &PC{keyer: k, s: base.s}
		var buf []byte
		if err := delta.EachCtx(nil, n, func(vals []uint16, c int) bool {
			b, ok := k.AppendBytesVals(buf[:0], vals)
			buf = b
			if ok {
				out.s[string(b)] += c
			}
			return true
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	// The base encoding shifted (delta grew a member domain): re-key both
	// epochs into a fresh index with the same representation dispatch a
	// rebuild over the union rows would pick (minus the spill tier — the
	// merged result materializes in memory here; spilled bases take the
	// run-level path above).
	return mergeRekey(nil, k, n, rows, opts, base, delta)
}

// mergeRekey streams any number of indexes into a fresh index keyed by k,
// choosing dense / u64-map / byte-map as a build over rows would; it is
// the body of a re-keying merge and of MarginalizeCtx. A fired ctx returns
// the typed context error and no index.
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
	if k.Fits() {
		out.u = make(map[uint64]int)
		for _, pc := range parts {
			if err := pc.EachCtx(ctx, n, func(vals []uint16, c int) bool {
				if key, ok := k.KeyVals(vals); ok {
					out.u[key] += c
				}
				return true
			}); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	out.s = make(map[string]int)
	var buf []byte
	for _, pc := range parts {
		if err := pc.EachCtx(ctx, n, func(vals []uint16, c int) bool {
			b, ok := k.AppendBytesVals(buf[:0], vals)
			buf = b
			if ok {
				out.s[string(b)] += c
			}
			return true
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mergeSpilled merges a delta into a merge-on-read base. Two shapes:
//
//   - Append: the base still owns its run files (an in-process build, not
//     an artifact) and the record encoding is still valid — delta records
//     append to the existing runs through the same deterministic routing,
//     so one run keeps holding every occurrence of its keys. One scan per
//     affected run computes the exact new size before a byte is written.
//   - Rewrite: the runs belong to a committed artifact (appending would
//     desync the manifest; the files are open read-only anyway) or the u64
//     encoding shifted — base records stream (re-keyed as needed) together
//     with the delta's into a fresh writer.
//
// Either way the modeled merged-map footprint is re-checked against the
// base's budget, exactly countMerge's criterion: a merge that shrank below
// budget relative to the model (sizes grew, so in practice: a budget that
// still fits) materializes in memory and releases the runs; otherwise the
// result stays spilled behind a fresh merge-on-read view.
func mergeSpilled(base, delta *PC, k *Keyer, n, rows int, opts CountOptions) (*PC, error) {
	sp := base.sp
	format := spillFmtBytes
	if sp.u64 {
		format = spillFmtU64
	}
	sameLayout := format == spillFmtBytes || (k.Fits() && sameKeyLayout(base.keyer, k))
	workers := opts.scanWorkers(rows)
	if sp.w.Owned() && sameLayout {
		return mergeSpilledAppend(sp, delta, k, n, workers, format, opts)
	}
	return mergeSpilledRewrite(sp, base.keyer, delta, k, n, workers, format, opts)
}

// mergeSpilledAppend folds the delta into the base's own run files in
// place. Size accounting first (scan each affected run once, count delta
// keys not present), then the append — c copies of a key's record, exactly
// the stream partitioning the delta rows would have produced.
func mergeSpilledAppend(sp *spilledPC, delta *PC, k *Keyer, n, workers int, format spillFormat, opts CountOptions) (*PC, error) {
	w := sp.w
	newRunSizes := append([]int(nil), sp.runSizes...)
	newSize := sp.size
	sw := w.Shard()
	closed := false
	defer func() {
		if !closed {
			sw.Close()
		}
	}()

	if format == spillFmtU64 {
		perRun := make(map[int]map[uint64]int)
		if err := delta.EachCtx(nil, n, func(vals []uint16, c int) bool {
			if key, ok := k.KeyVals(vals); ok {
				run := w.RunOfU64(key)
				m := perRun[run]
				if m == nil {
					m = make(map[uint64]int)
					perRun[run] = m
				}
				m[key] += c
			}
			return true
		}); err != nil {
			return nil, err
		}
		for run, m := range perRun {
			seen := make(map[uint64]struct{}, sp.runSizes[run])
			if err := w.ScanRun(run, func(rec []byte) bool {
				seen[binary.LittleEndian.Uint64(rec)] = struct{}{}
				return true
			}); err != nil {
				return nil, err
			}
			for key := range m {
				if _, dup := seen[key]; !dup {
					newSize++
					newRunSizes[run]++
				}
			}
			for key, c := range m {
				for i := 0; i < c; i++ {
					sw.AddU64(key)
				}
			}
		}
	} else {
		perRun := make(map[int]map[string]int)
		var buf []byte
		if err := delta.EachCtx(nil, n, func(vals []uint16, c int) bool {
			b, ok := k.AppendBytesVals(buf[:0], vals)
			buf = b
			if ok {
				run := w.RunOf(b)
				m := perRun[run]
				if m == nil {
					m = make(map[string]int)
					perRun[run] = m
				}
				m[string(b)] += c
			}
			return true
		}); err != nil {
			return nil, err
		}
		for run, m := range perRun {
			seen := make(map[string]struct{}, sp.runSizes[run])
			if err := w.ScanRun(run, func(rec []byte) bool {
				seen[string(rec)] = struct{}{}
				return true
			}); err != nil {
				return nil, err
			}
			for key := range m {
				if _, dup := seen[key]; !dup {
					newSize++
					newRunSizes[run]++
				}
			}
			for key, c := range m {
				for i := 0; i < c; i++ {
					sw.Add([]byte(key))
				}
			}
		}
	}
	closed = true
	if err := sw.Close(); err != nil {
		return nil, err
	}
	return finishSpilledMerge(sp, w, k, format, newSize, newRunSizes, workers, opts)
}

// mergeSpilledRewrite streams the base's records (re-keyed when the u64
// encoding shifted or overflowed) and the delta's entries into a fresh
// writer, leaving the old runs untouched — the path for artifact-owned
// bases, whose committed manifest must keep describing its run files
// exactly.
func mergeSpilledRewrite(sp *spilledPC, baseKeyer *Keyer, delta *PC, k *Keyer, n, workers int, format spillFormat, opts CountOptions) (*PC, error) {
	w := sp.w
	budget := mergeBudget(sp, opts)
	outFormat := format
	if format == spillFmtU64 && !k.Fits() {
		outFormat = spillFmtBytes // union key space overflowed uint64
	}
	rekey := format == spillFmtU64 && !(outFormat == spillFmtU64 && sameKeyLayout(baseKeyer, k))

	nw, err := spill.NewWriter(spill.Config{
		RecWidth: outFormat.recWidth(k),
		Runs:     w.NumRuns(),
		Dir:      opts.SpillDir,
		Pool:     opts.Pool,
		FS:       opts.FS,
	})
	if err != nil {
		return nil, err
	}
	keep := false
	defer func() {
		if !keep {
			nw.Cleanup()
		}
	}()

	sw := nw.Shard()
	closed := false
	defer func() {
		if !closed {
			sw.Close()
		}
	}()
	vals := make([]uint16, n)
	var buf []byte
	for run := 0; run < w.NumRuns(); run++ {
		if err := w.ScanRun(run, func(rec []byte) bool {
			if !rekey {
				sw.Add(rec)
				return true
			}
			baseKeyer.Decode(binary.LittleEndian.Uint64(rec), vals)
			if outFormat == spillFmtU64 {
				if key, ok := k.KeyVals(vals); ok {
					sw.AddU64(key)
				}
			} else {
				if b, ok := k.AppendBytesVals(buf[:0], vals); ok {
					buf = b
					sw.Add(b)
				}
			}
			return true
		}); err != nil {
			return nil, err
		}
	}
	if err := delta.EachCtx(nil, n, func(dvals []uint16, c int) bool {
		if outFormat == spillFmtU64 {
			if key, ok := k.KeyVals(dvals); ok {
				for i := 0; i < c; i++ {
					sw.AddU64(key)
				}
			}
		} else {
			if b, ok := k.AppendBytesVals(buf[:0], dvals); ok {
				buf = b
				for i := 0; i < c; i++ {
					sw.Add(b)
				}
			}
		}
		return true
	}); err != nil {
		return nil, err
	}
	closed = true
	if err := sw.Close(); err != nil {
		return nil, err
	}

	runSizes := make([]int, nw.NumRuns())
	entry := outFormat.entryBytes(k)
	out := &PC{keyer: k}
	if outFormat == spillFmtU64 {
		m, size, err := countMerge(nil, nw.CountRunsU64Ctx, workers, budget, entry, runSizes)
		if err != nil {
			return nil, err
		}
		if m != nil {
			out.u = m
			sp.release()
			return out, nil
		}
		keep = true
		sp.release()
		out.sp = newSpilledPC(nw, k, outFormat, size, runSizes, budget, opts.Stats)
		return out, nil
	}
	m, size, err := countMerge(nil, nw.CountRunsCtx, workers, budget, entry, runSizes)
	if err != nil {
		return nil, err
	}
	if m != nil {
		out.s = m
		sp.release()
		return out, nil
	}
	keep = true
	sp.release()
	out.sp = newSpilledPC(nw, k, outFormat, size, runSizes, budget, opts.Stats)
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

// finishSpilledMerge applies the modeled-footprint re-check after an
// in-place append: within budget materializes the merged map from the runs
// and releases them; over budget retires the stale view (detach — the
// successor keeps the writer and its appended runs) and publishes a fresh
// merge-on-read index with the exact new size and run sizes.
func finishSpilledMerge(sp *spilledPC, w *spill.Writer, k *Keyer, format spillFormat, newSize int, newRunSizes []int, workers int, opts CountOptions) (*PC, error) {
	entry := format.entryBytes(k)
	budget := mergeBudget(sp, opts)
	out := &PC{keyer: k}
	if int64(newSize)*entry <= budget {
		if format == spillFmtU64 {
			m := make(map[uint64]int, newSize)
			if _, _, err := w.CountRunsU64Ctx(nil, -1, workers, func(_ int, counts map[uint64]int) bool {
				for key, c := range counts {
					m[key] = c
				}
				return true
			}); err != nil {
				return nil, err
			}
			out.u = m
		} else {
			m := make(map[string]int, newSize)
			if _, _, err := w.CountRunsCtx(nil, -1, workers, func(_ int, counts map[string]int) bool {
				for key, c := range counts {
					m[key] = c
				}
				return true
			}); err != nil {
				return nil, err
			}
			out.s = m
		}
		sp.release()
		return out, nil
	}
	scanStats := sp.scanStats
	if scanStats == nil {
		scanStats = opts.Stats
	}
	sp.detach()
	out.sp = newSpilledPC(w, k, format, newSize, newRunSizes, budget, scanStats)
	return out, nil
}
