package core

import (
	"fmt"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/spill"
)

// PCRepr is the representation-level view of a pattern-count index — the
// serialization hook behind label artifacts (internal/artifact). Exactly
// one of Dense, U and Spill is populated, mirroring the three storage
// representations of PC. The exposed slices and runs are the PC's own
// state, not copies: callers must treat them as read-only and must have
// exclusive access while adopting a spilled index's run files.
type PCRepr struct {
	Attrs lattice.AttrSet

	// Dense path: flat counts indexed by mixed-radix key.
	Dense    []int32
	Distinct int

	// Sorted path: ascending W-word keys with their counts.
	U *SortedCounts

	// Merge-on-read path.
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
		r.Dense, r.Distinct = pc.dz, pc.distinct
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
// In-memory representations are checked against the invariants their
// lookups rely on, and one that breaks them is an error, never a PC that
// answers wrongly: a dense slab must match the key space, hold no negative
// count and have Distinct nonzero slots; a sorted layout must have the
// attribute set's key width, strictly ascending keys inside the key space
// and positive counts.
func PCFromRepr(d *dataset.Dataset, r PCRepr) (*PC, error) {
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
	case r.Dense != nil:
		radix, ok := k.Radix()
		if !ok || radix != uint64(len(r.Dense)) {
			return nil, fmt.Errorf("core: dense PC slab has %d slots, attribute set %v keys %d", len(r.Dense), r.Attrs, radix)
		}
		distinct := 0
		for key, c := range r.Dense {
			if c < 0 {
				return nil, fmt.Errorf("core: dense PC slot %d holds negative count %d", key, c)
			}
			if c > 0 {
				distinct++
			}
		}
		if distinct != r.Distinct {
			return nil, fmt.Errorf("core: dense PC has %d nonzero slots, representation says %d", distinct, r.Distinct)
		}
		pc.dz, pc.distinct = r.Dense, r.Distinct
	case r.U != nil:
		if err := r.U.validate(k.radix); err != nil {
			return nil, err
		}
		pc.u = r.U
	default:
		return nil, fmt.Errorf("core: PC representation with no populated storage")
	}
	return pc, nil
}
