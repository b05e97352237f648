package search

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/workpool"
)

// rowIndex maps every (attribute, value) of a dataset to the rows holding
// it, so the evaluation phase can count c_D(p|S ∩ Attr(p)) by intersecting
// row sets instead of building a label per candidate. A value held by at
// least |D|/32 rows keeps a bitmap of ⌈|D|/64⌉ words, any other an
// ascending list of row ids: the container rule of Roaring bitmaps
// (Lemire et al., Software: Practice and Experience 2016), under which an
// attribute costs at most 4 bytes a non-NULL row, whatever its domain.
type rowIndex struct {
	words int        // ⌈|D|/64⌉
	sets  [][]rowSet // sets[a][id-1]: the rows holding value id of attribute a
}

// rowSet is the rows holding one value: a bitmap or a row-id list, or
// neither when the value occurs nowhere.
type rowSet struct {
	n    int // c_D({A = v})
	bits []uint64
	ids  []uint32
}

// bitmapped reports whether a value held by n of rows rows keeps a bitmap:
// from n ≥ rows/32 on, its 4n-byte list would outgrow the rows/8 bytes of
// a bitmap.
func bitmapped(n, rows int) bool { return n > 0 && 32*n >= rows }

// indexBytes is the memory the row index of d takes.
func indexBytes(d *dataset.Dataset) int64 {
	rows := d.NumRows()
	words := int64(rows+63) / 64
	vc, _ := d.VCTable()
	var total int64
	for _, counts := range vc {
		for _, n := range counts {
			if bitmapped(n, rows) {
				total += 8 * words
			} else {
				total += 4 * int64(n)
			}
		}
	}
	return total
}

// newRowIndex builds the row index of d over up to workers goroutines, one
// attribute each. It returns nil — every scorer then starts from its label
// — when the hook opts.noIndex is set, when row ids do not fit 32 bits, or
// when the index would take more than a positive opts.MemBudget.
func newRowIndex(d *dataset.Dataset, opts Options) *rowIndex {
	rows := d.NumRows()
	if opts.noIndex || uint64(rows) > math.MaxUint32 ||
		(opts.MemBudget > 0 && indexBytes(d) > opts.MemBudget) {
		return nil
	}
	ix := &rowIndex{words: (rows + 63) / 64, sets: make([][]rowSet, d.NumAttrs())}
	vc, _ := d.VCTable()
	workpool.Do(d.NumAttrs(), opts.Workers, func(a int) {
		counts := vc[a]
		nbits, nids := 0, 0
		for _, n := range counts {
			if bitmapped(n, rows) {
				nbits++
			} else {
				nids += n
			}
		}
		bitArena := make([]uint64, nbits*ix.words)
		idArena := make([]uint32, nids)
		sets := make([]rowSet, len(counts))
		for v, n := range counts {
			sets[v].n = n
			switch {
			case bitmapped(n, rows):
				sets[v].bits, bitArena = bitArena[:ix.words:ix.words], bitArena[ix.words:]
			case n > 0:
				sets[v].ids, idArena = idArena[:0:n], idArena[n:]
			}
		}
		for r, id := range d.Col(a) {
			if id == dataset.Null {
				continue
			}
			if st := &sets[id-1]; st.bits != nil {
				st.bits[r>>6] |= 1 << (r & 63)
			} else {
				st.ids = append(st.ids, uint32(r))
			}
		}
		ix.sets[a] = sets
	})
	return ix
}

// count returns c_D(p|inter) for the pattern p whose values are vals: the
// rows holding p's value on every attribute of the nonempty set inter. It
// intersects those rows smallest first and reports the index work it did,
// in words read or list entries probed.
func (ix *rowIndex) count(vals []uint16, inter lattice.AttrSet) (n int, work int64) {
	var buf [lattice.MaxAttrs]*rowSet
	sets := buf[:0]
	for rest := uint64(inter); rest != 0; rest &= rest - 1 {
		a := bits.TrailingZeros64(rest)
		id := vals[a]
		if id == dataset.Null || ix.sets[a][id-1].n == 0 {
			return 0, 0
		}
		sets = append(sets, &ix.sets[a][id-1])
	}
	if len(sets) == 1 {
		return sets[0].n, 0
	}
	slices.SortFunc(sets, func(x, y *rowSet) int { return x.n - y.n })
	if sets[0].bits != nil {
		// Every set is a bitmap: a list holds fewer rows than any bitmap.
		first, rest := sets[0].bits, sets[1:]
		for i, w := range first {
			for _, st := range rest {
				w &= st.bits[i]
			}
			n += bits.OnesCount64(w)
		}
		return n, int64(len(sets) * ix.words)
	}
	// Probe each row of the smallest list in the other sets; a list's
	// cursor only moves forward, as the probes ascend.
	var cursor [lattice.MaxAttrs]int
rows:
	for _, r := range sets[0].ids {
		for j, st := range sets[1:] {
			if st.bits != nil {
				if st.bits[r>>6]&(1<<(r&63)) == 0 {
					continue rows
				}
				continue
			}
			k, found := slices.BinarySearch(st.ids[cursor[j]:], r)
			cursor[j] += k
			if !found {
				continue rows
			}
		}
		n++
	}
	return n, int64(len(sets[0].ids) * (len(sets) - 1))
}

// switchWords is the index work after which a scorer builds its label and
// answers the rest of its estimates from it: about one row scan's worth,
// |D| words. Index scoring costs |S ∩ Attr(p)|·|D|/64 words an estimate,
// so a scorer that reads a few patterns (FastEval reads 1–20 a candidate
// on the paper emulators) never switches, while one that reads them all
// (FastEval off: 45,998 a COMPAS candidate) switches after a few dozen.
// Measured on the full-size emulators (seed 1, bound 100, 50 for
// BlueNile) at 2 workers, best of 5, on a 2-vCPU Intel Xeon: with
// FastEval off, evaluation took COMPAS 717 ms, Credit Card 1,524 ms and
// BlueNile 14.9 ms, against 699, 1,507 and 14.0 ms building every
// candidate's label, where index scoring alone took COMPAS 29.7 s; with
// FastEval on, no COMPAS or Credit Card scorer switched, and evaluation
// took 2.3, 1.1 and 1.1 ms against 45, 44 and 2.1 ms. Options.switchAt
// overrides it in tests.
func switchWords(rows int, opts Options) int64 {
	switch {
	case opts.switchAt > 0:
		return opts.switchAt
	case opts.switchAt < 0:
		return 0
	}
	return int64(rows)
}

// scorer estimates pattern counts for one candidate S exactly as its label
// L_S(D) would, bit for bit (core.Label's EstimateRow): the base count is
// |D| when S ∩ Attr(p) is empty and c_D(p|S ∩ Attr(p)) from the row index
// otherwise, times the VC fractions of Attr(p) ∖ S through the label's own
// product (core.Independence). Once its index work reaches limit — at
// once, without an index — it builds L_S(D) and answers from the label.
// It is safe for concurrent use.
type scorer struct {
	ix    *rowIndex
	d     *dataset.Dataset
	attrs lattice.AttrSet
	fracs [][]float64
	limit int64
	co    core.CountOptions // the switch's label build

	work  atomic.Int64
	label atomic.Pointer[core.Label]
	mu    sync.Mutex
	err   error // the switch's failed build; guarded by mu
}

func newScorer(ix *rowIndex, d *dataset.Dataset, s lattice.AttrSet, limit int64, co core.CountOptions) *scorer {
	if ix == nil {
		limit = 0
	}
	_, fracs := d.VCTable()
	return &scorer{ix: ix, d: d, attrs: s, fracs: fracs, limit: limit, co: co}
}

// EstimateRow implements core.Estimator. After a failed label build it
// answers 0; the caller checks failed.
func (sc *scorer) EstimateRow(vals []uint16, attrs lattice.AttrSet) float64 {
	l := sc.label.Load()
	if l == nil && sc.work.Load() >= sc.limit {
		if l = sc.switchToLabel(); l == nil {
			return 0
		}
	}
	if l != nil {
		return l.EstimateRow(vals, attrs)
	}
	base := sc.d.NumRows()
	if inter := attrs.Intersect(sc.attrs); !inter.IsEmpty() {
		var work int64
		base, work = sc.ix.count(vals, inter)
		sc.work.Add(work)
	}
	if base == 0 {
		return 0
	}
	return core.Independence(float64(base), vals, attrs.Diff(sc.attrs), sc.fracs)
}

// switchToLabel builds the scorer's label once, under its options.
func (sc *scorer) switchToLabel() *core.Label {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if l := sc.label.Load(); l != nil || sc.err != nil {
		return l
	}
	l, err := core.BuildLabel(sc.d, sc.attrs, sc.co)
	if err != nil {
		sc.err = err
		return nil
	}
	sc.label.Store(l)
	return l
}

// failed returns the error of a failed switch, nil otherwise.
func (sc *scorer) failed() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.err
}
