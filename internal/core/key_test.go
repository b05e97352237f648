package core

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

// TestKeyerRoundTrip (property): for random value assignments, encoding then
// decoding through the mixed-radix keyer is the identity.
func TestKeyerRoundTrip(t *testing.T) {
	d := testutil.Fig2()
	n := d.NumAttrs()
	cfg := &quick.Config{MaxCount: 500}
	prop := func(mask uint8, seed uint64) bool {
		s := lattice.AttrSet(mask) & lattice.FullSet(n)
		if s.IsEmpty() {
			s = lattice.FullSet(n)
		}
		k := NewKeyer(d, s)
		if k.Words() != 1 {
			return true
		}
		rng := rand.New(rand.NewPCG(seed, 1))
		vals := make([]uint16, n)
		for _, i := range s.Members() {
			vals[i] = uint16(1 + rng.IntN(d.Attr(i).DomainSize()))
		}
		key, ok := k.KeyVals(vals)
		if !ok {
			return false
		}
		decoded := make([]uint16, n)
		k.Decode(key, decoded)
		for _, i := range s.Members() {
			if decoded[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestKeyerBytesRoundTrip (property): over 30 attributes of 5 values, whose
// full key space 5^30 passes 2^63, keys of every width — one word for small
// sets, two for wide ones — decode to the values that produced them, lie
// in the key space, and survive their record form (the words'
// little-endian bytes).
func TestKeyerBytesRoundTrip(t *testing.T) {
	d := diffDataset(t, diffConfig{rows: 1, attrs: 30, domain: 5}, 2)
	n := d.NumAttrs()
	if w := NewKeyer(d, lattice.FullSet(n)).Words(); w != 2 {
		t.Fatalf("full set keys %d words, want 2", w)
	}
	prop := func(mask uint32, seed uint64) bool {
		s := lattice.AttrSet(mask) & lattice.FullSet(n)
		if s.IsEmpty() {
			s = lattice.FullSet(n)
		}
		k := NewKeyer(d, s)
		rng := rand.New(rand.NewPCG(seed, 2))
		vals := make([]uint16, n)
		for _, i := range s.Members() {
			vals[i] = uint16(1 + rng.IntN(d.Attr(i).DomainSize()))
		}
		key, ok := k.appendKey(nil, vals)
		if !ok || len(key) != k.Words() || !k.validKey(key) {
			return false
		}
		if back := appendWords(nil, string(appendRecord(nil, key))); !slices.Equal(back, key) {
			return false
		}
		decoded := make([]uint16, n)
		k.decodeKey(key, decoded)
		for _, i := range s.Members() {
			if decoded[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestKeyerNullRejection: rows with NULL in a member attribute produce no
// key under either encoding.
func TestKeyerNullRejection(t *testing.T) {
	b := dataset.NewBuilder("nulls", "x", "y")
	b.AppendStrings("a", "")
	b.AppendStrings("a", "b")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	k := NewKeyer(d, lattice.FullSet(2))
	cols := [][]uint16{d.Col(0), d.Col(1)}
	if _, ok := k.KeyRow(cols, 0); ok {
		t.Error("uint64 key produced for a NULL row")
	}
	if _, ok := k.KeyRow(cols, 1); !ok {
		t.Error("no key for a fully non-NULL row")
	}
	if rec, ok := k.appendRecordRow([]byte{9}, cols, 0); ok || len(rec) != 1 {
		t.Error("record produced for a NULL row")
	}
	// A NULL leaves the destination as it was, for every key width.
	wide := diffDataset(t, diffConfig{rows: 1, attrs: 30, domain: 5}, 1)
	for _, kk := range []*Keyer{k, NewKeyer(wide, lattice.FullSet(30))} {
		vals := make([]uint16, 30)
		for i := range vals {
			vals[i] = 1
		}
		vals[1] = dataset.Null
		if key, ok := kk.appendKey([]uint64{7}, vals); ok || len(key) != 1 {
			t.Errorf("%d-word key of a NULL value: %v, %v", kk.Words(), key, ok)
		}
	}
}

// TestKeyerOverflowFallsBack: a synthetic schema whose domain product
// overflows 63 bits must select a two-word key, and PC building must still
// work through it.
func TestKeyerOverflowFallsBack(t *testing.T) {
	names := make([]string, 16)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	b := dataset.NewBuilder("wide", names...)
	// Give every attribute 32 values: 32^16 = 2^80 > 2^63.
	rng := rand.New(rand.NewPCG(7, 7))
	row := make([]string, 16)
	for r := 0; r < 500; r++ {
		for i := range row {
			row[i] = string(rune('A' + rng.IntN(32)))
		}
		b.AppendStrings(row...)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	full := lattice.FullSet(16)
	if w := NewKeyer(d, full).Words(); w != 2 {
		t.Fatalf("keyer takes %d words, want 2", w)
	}
	pc := must(BuildPC(d, full, CountOptions{Workers: 1}))
	total := 0
	noErr(pc.EachCtx(nil, 16, func(vals []uint16, c int) bool {
		total += c
		return true
	}))
	if total != 500 {
		t.Errorf("PC total = %d, want 500", total)
	}
	// Lookup agrees with a scan for an arbitrary row.
	p := PatternFromRow(d, 0, full)
	if got, want := must(pc.LookupValsCtx(nil, p.vals)), CountPattern(d, p); got != want {
		t.Errorf("fallback lookup = %d, want %d", got, want)
	}
}

// TestPCAgainstScan (property): PC lookups equal full-scan counts for every
// pattern in P_S, and PC sizes match LabelSize.
func TestPCAgainstScan(t *testing.T) {
	d := testutil.Fig2()
	n := d.NumAttrs()
	lattice.AllSubsets(n, func(s lattice.AttrSet) bool {
		pc := must(BuildPC(d, s, CountOptions{Workers: 1}))
		sz, _ := labelSize(d, s, -1)
		if pc.Size() != sz {
			t.Errorf("PC size %d != LabelSize %d for %v", pc.Size(), sz, s)
		}
		noErr(pc.EachCtx(nil, n, func(vals []uint16, c int) bool {
			p, err := PatternFromIDs(s, vals)
			if err != nil {
				t.Fatal(err)
			}
			if want := CountPattern(d, p); c != want {
				t.Errorf("PC count %d != scan %d for %s", c, want, p.Format(d))
			}
			return true
		}))
		return true
	})
}

// TestMarginalizeMatchesRebuild: marginalizing a PC equals building the PC
// from scratch on a NULL-free dataset.
func TestMarginalizeMatchesRebuild(t *testing.T) {
	d := testutil.Fig2()
	n := d.NumAttrs()
	full := lattice.FullSet(n)
	parent := must(BuildPC(d, full, CountOptions{Workers: 1}))
	lattice.AllSubsets(n, func(sub lattice.AttrSet) bool {
		marg := must(parent.MarginalizeCtx(nil, d, sub))
		direct := must(BuildPC(d, sub, CountOptions{Workers: 1}))
		if marg.Size() != direct.Size() {
			t.Errorf("marginal size %d != direct %d for %v", marg.Size(), direct.Size(), sub)
		}
		noErr(direct.EachCtx(nil, n, func(vals []uint16, c int) bool {
			if got := must(marg.LookupValsCtx(nil, vals)); got != c {
				t.Errorf("marginal count %d != direct %d for %v", got, c, sub)
			}
			return true
		}))
		return true
	})
}

// TestDifferentialMarginalize: on NULL-free data, marginalizing any parent
// index to a subset must equal the raw group-by of the subset — for dense,
// one-word and two-word sorted parents, and for dense and sorted outputs.
func TestDifferentialMarginalize(t *testing.T) {
	for ci, cfg := range diffConfigs {
		if cfg.nullRate > 0 {
			continue // NULL counts are not recoverable from the parent (documented)
		}
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0x3A46))
			parents := []lattice.AttrSet{lattice.FullSet(cfg.attrs)}
			for _, parent := range parents {
				pc := must(BuildPC(d, parent, CountOptions{Workers: 1}))
				subs := []lattice.AttrSet{0, lattice.NewAttrSet(0)}
				for len(subs) < 6 {
					var s lattice.AttrSet
					for _, a := range parent.Members() {
						if rng.IntN(2) == 1 {
							s = s.Add(a)
						}
					}
					subs = append(subs, s)
				}
				for _, sub := range subs {
					pcEqual(t, must(BuildPC(d, sub, CountOptions{Workers: 1})), must(pc.MarginalizeCtx(nil, d, sub)))
				}
			}
		})
	}
	// Two-word parent marginalized to a one-word/dense subset.
	wide := diffDataset(t, diffConfig{rows: 800, attrs: 4, domain: 65000, nullRate: 0}, 9)
	parent := must(BuildPC(wide, lattice.FullSet(4), CountOptions{Workers: 1}))
	if pcRepr(parent) != "wide" {
		t.Fatalf("wide parent repr = %s, want wide", pcRepr(parent))
	}
	for _, sub := range []lattice.AttrSet{lattice.NewAttrSet(0), lattice.NewAttrSet(1, 3)} {
		pcEqual(t, must(BuildPC(wide, sub, CountOptions{Workers: 1})), must(parent.MarginalizeCtx(nil, wide, sub)))
	}
}
