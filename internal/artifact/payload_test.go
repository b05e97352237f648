package artifact

// Sorted payloads: an in-memory PC, dense or sorted, saves as one run of
// its entries and reopens with the same entries in the same order (the
// representation a reopened PC gets is checked on the label Open
// assembles by internal/core's TestPortableTiersMatchBuild, over the same
// shapes); a payload that breaks the run codec, the entry total, the row
// total or the key space fails Open with ErrCorrupt.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// eachEntries lists a PC's entries in EachCtx order.
func eachEntries(pc *core.PC, n int) []string {
	var out []string
	noErr(pc.EachCtx(nil, n, func(vals []uint16, c int) bool {
		out = append(out, fmt.Sprint(vals, c))
		return true
	}))
	return out
}

// assertSameEntries checks that got holds want's entries in want's order.
func assertSameEntries(t *testing.T, what string, got, want *core.PC, n int) {
	t.Helper()
	if g, w := eachEntries(got, n), eachEntries(want, n); !slices.Equal(g, w) || got.Size() != want.Size() {
		t.Fatalf("%s: reopened PC yields %d entries (size %d), the saved one %d (size %d), or another order",
			what, len(g), got.Size(), len(w), want.Size())
	}
}

// saveOpen saves l at a fresh directory and reopens it, checking that every
// payload is a sorted one of the given key width for the PC section.
func saveOpen(t *testing.T, l *core.Label, words int) (string, *core.Label, *Manifest) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "a")
	if err := Save(l, dir); err != nil {
		t.Fatal(err)
	}
	rl, m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, pm := range m.PCs {
		if pm.Kind != kindSorted {
			t.Fatalf("payload %d is %s, want %s", i, pm.Kind, kindSorted)
		}
	}
	assertPCKind(t, m, kindSorted, words)
	return dir, rl, m
}

// TestSortedPayloadRoundTrips saves PC sections that are dense (4×6),
// sorted (4×50) and sorted of two and three words, over rows with 5%
// NULLs, with materialized marginals of every tier, fresh and merged: the
// reopened PCs yield the saved entries in the saved order.
func TestSortedPayloadRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		attrs, domain, words int
	}{
		{4, 6, 1},
		{4, 50, 1},
		{30, 5, 2},
		{60, 5, 3},
	} {
		name := fmt.Sprintf("%dx%d", tc.attrs, tc.domain)
		d := genDataset(t, 2000, tc.attrs, tc.domain, 0.05, uint64(0x7E+tc.attrs+tc.domain))
		full := lattice.FullSet(tc.attrs)
		subs := []lattice.AttrSet{lattice.NewAttrSet(0), lattice.NewAttrSet(0, 1), full.Remove(0)}
		if tc.attrs > 10 {
			subs = append(subs, lattice.FullSet(10))
		}
		n := d.NumAttrs()

		l := must(core.BuildLabel(d, full, core.CountOptions{}))
		for _, sub := range subs {
			if _, _, err := l.MarginalPCCtx(nil, sub); err != nil {
				t.Fatal(err)
			}
		}
		_, rl, m := saveOpen(t, l, tc.words)
		if len(m.PCs) != 1+len(subs) {
			t.Fatalf("%s: %d payloads, want the PC section and %d marginals", name, len(m.PCs), len(subs))
		}
		assertSameEntries(t, name+" PC section", rl.PC(), l.PC(), n)
		for _, sub := range subs {
			want, _, _ := l.MarginalPCCtx(nil, sub)
			got, ok, err := rl.MarginalPCCtx(nil, sub)
			if err != nil || !ok {
				t.Fatalf("%s: marginal %v: ok=%v err=%v", name, sub, ok, err)
			}
			assertSameEntries(t, fmt.Sprintf("%s marginal %v", name, sub), got, want, n)
		}

		// A merged label: the base's rows saved with its marginals, the
		// last hundred rows merged in, against a build over every row.
		base, delta := must(d.Slice(0, 1900)), must(d.Slice(1900, 2000))
		bl := must(core.BuildLabel(base, full, core.CountOptions{}))
		for _, sub := range subs {
			if _, _, err := bl.MarginalPCCtx(nil, sub); err != nil {
				t.Fatal(err)
			}
		}
		dir, _, bm := saveOpen(t, bl, tc.words)
		if _, err := MergeInto(dir, must(core.BuildLabel(delta, full, core.CountOptions{})), bm); err != nil {
			t.Fatal(err)
		}
		ml, mm, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		assertPCKind(t, mm, kindSorted, tc.words)
		assertSameEntries(t, name+" merged PC section", ml.PC(), l.PC(), n)
		for _, sub := range subs {
			want, _, _ := l.MarginalPCCtx(nil, sub)
			got, ok, err := ml.MarginalPCCtx(nil, sub)
			if err != nil || !ok {
				t.Fatalf("%s: merged marginal %v: ok=%v err=%v", name, sub, ok, err)
			}
			assertSameEntries(t, fmt.Sprintf("%s merged marginal %v", name, sub), got, want, n)
		}
	}
}

// TestEmptyPCRoundTrips: a PC over a set every row is NULL in holds no
// entry; it saves as an empty sorted payload and reopens empty.
func TestEmptyPCRoundTrips(t *testing.T) {
	bld := dataset.NewBuilder("empty", "a0", "a1")
	for _, v := range []string{"x", "y", "z"} {
		for a := range 2 {
			if _, err := bld.InternValue(a, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < 50; r++ {
		bld.AppendStrings([]string{"x", "y", "z"}[r%3], "")
	}
	d := must(bld.Build())
	l := must(core.BuildLabel(d, lattice.FullSet(2), core.CountOptions{}))
	if l.PC().Size() != 0 {
		t.Fatalf("PC over a NULL column holds %d patterns", l.PC().Size())
	}
	_, rl, m := saveOpen(t, l, 1)
	if pm := m.PCs[0]; pm.Entries != 0 || pm.SizeBytes != 0 {
		t.Fatalf("empty PC saved as %d entries in %d bytes", pm.Entries, pm.SizeBytes)
	}
	assertSameEntries(t, "empty PC", rl.PC(), l.PC(), 2)
	if rl.Size() != 0 || rl.Rows() != 50 {
		t.Fatalf("reopened empty label: size %d over %d rows", rl.Size(), rl.Rows())
	}
}

// TestCorruptSortedPayloadsFail: a sorted payload of three frames, saved
// and then damaged one way each, fails Open with ErrCorrupt — with the
// manifest's length and checksum fixed up to the damaged bytes wherever
// the damage should reach the decoder rather than the file checksum.
func TestCorruptSortedPayloadsFail(t *testing.T) {
	d := genDataset(t, 10000, 4, 50, 0, 0x7F)
	l := must(core.BuildLabel(d, lattice.FullSet(4), core.CountOptions{}))
	src, _, m := saveOpen(t, l, 1)
	path := filepath.Join(src, m.PCs[0].File)
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := decodeRunRef(saved, 1)
	if err != nil || len(entries) <= 2*runFrameEntries {
		t.Fatalf("saved payload: %d entries, %v; want three frames", len(entries), err)
	}
	edit := func(e func([]runEntry)) []byte {
		c := make([]runEntry, len(entries))
		for i, en := range entries {
			c[i] = runEntry{key: slices.Clone(en.key), count: en.count}
		}
		e(c)
		return encodeRunRef(c)
	}
	flipped := slices.Clone(saved)
	flipped[len(flipped)/2] ^= 0x40
	firstFrame := runHdrLen + int(binary.LittleEndian.Uint32(saved))
	for _, tc := range []struct {
		name  string
		data  []byte
		fix   bool // fix the manifest's length and checksum up
		words int
	}{
		{"flipped byte", flipped, false, 0},
		{"flipped byte past the file checksum", flipped, true, 0},
		{"cut at a frame boundary", saved[:firstFrame], true, 0},
		{"keys out of order", edit(func(e []runEntry) { e[10], e[11] = e[11], e[10] }), true, 0},
		{"counts past the rows", edit(func(e []runEntry) { e[0].count += uint64(d.NumRows()) }), true, 0},
		{"key past the key space", edit(func(e []runEntry) { e[len(e)-1].key[0] = 50 * 50 * 50 * 50 }), true, 0},
		{"two-word keys", edit(func(e []runEntry) {
			for i := range e {
				e[i].key = append(e[i].key, 0)
			}
		}), true, 2},
	} {
		dir := filepath.Join(t.TempDir(), "a")
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, m.PCs[0].File), tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		bad := *m
		bad.PCs = slices.Clone(m.PCs)
		if tc.fix {
			bad.PCs[0].SizeBytes = int64(len(tc.data))
			bad.PCs[0].Checksum = crc32.Checksum(tc.data, castagnoli)
		}
		bad.PCs[0].Words = tc.words
		manifest, err := encodeManifest(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", tc.name, err)
		}
	}
}
