package core

import (
	"fmt"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/spill"
)

// PCRepr is the representation-level view of a pattern-count index — the
// serialization hook behind label artifacts (internal/artifact). Exactly
// one of U and Spill is populated: an in-memory index exposes its entries
// in key order as the sorted layout (a dense slab's nonzero slots are
// listed on the call), a merge-on-read one its runs. The exposed layout
// and runs may be the PC's own state: callers must treat them as read-only
// and must have exclusive access while adopting a spilled index's run
// files.
type PCRepr struct {
	Attrs lattice.AttrSet

	// In-memory index: ascending W-word keys with their counts.
	U *SortedCounts

	// Merge-on-read index.
	Spill *SpillRepr
}

// SpillRepr describes a merge-on-read index: its sorted on-disk runs of
// W-word keys plus the metadata needed to reconstruct the read path.
type SpillRepr struct {
	Runs     *spill.Runs
	Size     int   // total distinct patterns, exact
	RunSizes []int // per-run distinct-key counts
	Budget   int64 // pinned hot-run cache budget
}

// Repr exposes the index's storage representation for serialization.
func (pc *PC) Repr() PCRepr {
	r := PCRepr{Attrs: pc.keyer.Attrs()}
	switch {
	case pc.sp != nil:
		r.Spill = &SpillRepr{
			Runs:     pc.sp.runs,
			Size:     pc.sp.size,
			RunSizes: pc.sp.runSizes,
			Budget:   pc.sp.budget,
		}
	case pc.dz != nil:
		u := &SortedCounts{W: 1, Keys: make([]uint64, 0, pc.distinct), Counts: make([]int32, 0, pc.distinct)}
		for key, c := range pc.dz {
			if c != 0 {
				u.Keys = append(u.Keys, uint64(key))
				u.Counts = append(u.Counts, c)
			}
		}
		r.U = u
	default:
		r.U = pc.u
	}
	return r
}

// PCFromRepr reconstructs a pattern-count index over dataset d (which may
// be a schema-only dataset: only the attribute dictionaries are consulted)
// from a representation previously exposed by Repr — the deserialization
// hook behind label artifacts. A spilled representation takes ownership of
// the runs exactly as a freshly built merge-on-read index would: the PC
// releases them via ReleaseSpill or a GC cleanup. Its run entries are
// verified as each run is first read.
//
// An in-memory representation must come verified from its decoder — keys
// strictly ascending, counts positive and summing to at most rows — and
// each key is checked here against the attribute set's key space, so a
// layout that breaks a lookup's invariants is an error, never a PC that
// answers wrongly. The PC gets the representation a build over rows rows
// would pick: a dense slab when the key space is dense-eligible, the
// sorted layout otherwise.
func PCFromRepr(d *dataset.Dataset, r PCRepr, rows int) (*PC, error) {
	k := NewKeyer(d, r.Attrs)
	pc := &PC{keyer: k}
	switch {
	case r.Spill != nil:
		sr := r.Spill
		if sr.Runs == nil {
			return nil, fmt.Errorf("core: spilled PC representation without runs")
		}
		if sr.Runs.NumRuns() != len(sr.RunSizes) {
			return nil, fmt.Errorf("core: spilled PC has %d runs but %d run sizes", sr.Runs.NumRuns(), len(sr.RunSizes))
		}
		if sr.Runs.Words() != k.Words() {
			return nil, fmt.Errorf("core: spilled PC runs hold %d-word keys, attribute set %v keys %d words", sr.Runs.Words(), r.Attrs, k.Words())
		}
		pc.sp = newSpilledPC(sr.Runs, k, sr.Size, sr.RunSizes, sr.Budget, nil)
	case r.U != nil:
		u := r.U
		if u.W != k.Words() || len(u.Keys) != u.W*len(u.Counts) {
			return nil, fmt.Errorf("core: sorted PC has %d key words for %d counts of %d-word keys, attribute set %v keys %d words",
				len(u.Keys), len(u.Counts), u.W, r.Attrs, k.Words())
		}
		for i := range u.Counts {
			if !k.validKey(u.entry(i)) {
				return nil, fmt.Errorf("core: sorted PC key %v at entry %d outside the key space %v", u.entry(i), i, k.radix)
			}
		}
		radix, dense := denseRadix(k, rows, defaultDenseLimit)
		if !dense {
			pc.u = u
			break
		}
		pc.dz, pc.distinct = make([]int32, radix), len(u.Counts)
		for i, key := range u.Keys {
			pc.dz[key] = u.Counts[i]
		}
	default:
		return nil, fmt.Errorf("core: PC representation with no populated storage")
	}
	return pc, nil
}
