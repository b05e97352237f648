package core

import (
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// PatternsOver builds the workload P_S (Definition 2.9 applied as an
// evaluation set): every pattern with Attr(p) = s and positive count. The
// problem definition (2.15) explicitly allows optimizing a label for such
// restricted workloads — "patterns that include only sensitive attributes" —
// instead of the default P_A. The group-by runs on the counting engine
// configured by opts; the error is opts.Ctx firing or a failed run read of
// a merge-on-read index.
func PatternsOver(d *dataset.Dataset, s lattice.AttrSet, opts CountOptions) (*PatternSet, error) {
	pc, err := BuildPC(d, s, opts)
	if err != nil {
		return nil, err
	}
	defer pc.ReleaseSpill() // transient index: drop merge-on-read runs eagerly
	n := d.NumAttrs()
	ps := &PatternSet{stride: n}
	if err := pc.EachCtx(opts.Ctx, n, func(vals []uint16, c int) bool {
		base := len(ps.flat)
		ps.flat = append(ps.flat, make([]uint16, n)...)
		for _, a := range s.Members() {
			ps.flat[base+a] = vals[a]
		}
		ps.counts = append(ps.counts, c)
		ps.attrs = append(ps.attrs, s)
		return true
	}); err != nil {
		return nil, err
	}
	return ps, nil
}
