package core

import (
	"fmt"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/spill"
)

// PCRepr is the representation-level view of a pattern-count index — the
// serialization hook behind label artifacts (internal/artifact). Exactly
// one of Dense, U, S and Spill is populated, mirroring the four storage
// representations of PC. The exposed slices, maps and writer are the PC's
// own state, not copies: callers must treat them as read-only and must
// have exclusive access while adopting a spilled index's run files.
type PCRepr struct {
	Attrs lattice.AttrSet

	// Dense path: flat counts indexed by mixed-radix key.
	Dense    []int32
	Distinct int

	// Sorted path: ascending mixed-radix keys with their counts.
	U *SortedCounts

	// Byte-string path.
	S map[string]int

	// Merge-on-read path.
	Spill *SpillRepr
}

// SpillRepr describes a merge-on-read index: the spill writer holding the
// on-disk runs plus the metadata needed to reconstruct the read path.
type SpillRepr struct {
	Writer   *spill.Writer
	U64      bool  // uint64 record format (vs byte-string)
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
			Writer:   pc.sp.w,
			U64:      pc.sp.u64,
			Size:     pc.sp.size,
			RunSizes: pc.sp.runSizes,
			Budget:   pc.sp.budget,
		}
	case pc.dz != nil:
		r.Dense, r.Distinct = pc.dz, pc.distinct
	case pc.u != nil:
		r.U = pc.u
	default:
		r.S = pc.s
	}
	return r
}

// PCFromRepr reconstructs a pattern-count index over dataset d (which may
// be a schema-only dataset: only the attribute dictionaries are consulted)
// from a representation previously exposed by Repr — the deserialization
// hook behind label artifacts. A spilled representation takes ownership of
// the writer exactly as a freshly built merge-on-read index would: the PC
// releases it via ReleaseSpill or a GC cleanup.
//
// In-memory representations are checked against the invariants their
// lookups rely on, and one that breaks them is an error, never a PC that
// answers wrongly: a dense slab must match the key space, hold no negative
// count and have Distinct nonzero slots; a sorted layout must have
// strictly ascending keys inside the key space and positive counts.
func PCFromRepr(d *dataset.Dataset, r PCRepr) (*PC, error) {
	k := NewKeyer(d, r.Attrs)
	pc := &PC{keyer: k}
	switch {
	case r.Spill != nil:
		sr := r.Spill
		if sr.Writer == nil {
			return nil, fmt.Errorf("core: spilled PC representation without a writer")
		}
		if sr.Writer.NumRuns() != len(sr.RunSizes) {
			return nil, fmt.Errorf("core: spilled PC has %d runs but %d run sizes", sr.Writer.NumRuns(), len(sr.RunSizes))
		}
		format := spillFmtBytes
		if sr.U64 {
			if !k.Fits() {
				return nil, fmt.Errorf("core: uint64 spill format for attribute set %v whose key space overflows uint64", r.Attrs)
			}
			format = spillFmtU64
		}
		pc.sp = newSpilledPC(sr.Writer, k, format, sr.Size, sr.RunSizes, sr.Budget, nil)
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
		radix, ok := k.Radix()
		if !ok {
			return nil, fmt.Errorf("core: sorted uint64 PC for attribute set %v whose key space overflows uint64", r.Attrs)
		}
		if err := r.U.validate(radix); err != nil {
			return nil, err
		}
		pc.u = r.U
	case r.S != nil:
		pc.s = r.S
	default:
		return nil, fmt.Errorf("core: PC representation with no populated storage")
	}
	return pc, nil
}
