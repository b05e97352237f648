package core

// Differential coverage for the dense counting kernel, checked against a
// deliberately naive reference group-by (a per-row KeyRow/AppendBytesRow
// loop into a map, sharing none of the kernel code) across the randomized
// dataset shapes of the engine harness. The dense, map and byte paths must
// all reproduce the reference exactly, and the dense-vs-map routing must
// follow the documented selection rules.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// refCounts is the reference group-by: pattern→count over s via the
// straight per-row loop.
func refCounts(d *dataset.Dataset, s lattice.AttrSet) map[string]int {
	k := NewKeyer(d, s)
	cols := datasetCols(d)
	out := make(map[string]int)
	vals := make([]uint16, d.NumAttrs())
	var buf []byte
	for r := 0; r < d.NumRows(); r++ {
		b, ok := k.AppendBytesRow(buf[:0], cols, r)
		buf = b
		if !ok {
			continue
		}
		k.DecodeBytes(string(b), vals)
		var key string
		for _, a := range s.Members() {
			key += fmt.Sprintf("%d=%d;", a, vals[a])
		}
		out[key]++
	}
	return out
}

// dumpEqual asserts a PC reproduces the reference counts exactly.
func dumpEqual(t *testing.T, ref map[string]int, pc *PC, what string) {
	t.Helper()
	got := pcDump(pc)
	if len(got) != len(ref) {
		t.Fatalf("%s: %d patterns, reference %d", what, len(got), len(ref))
	}
	for key, c := range ref {
		if got[key] != c {
			t.Fatalf("%s: pattern %q count %d, reference %d", what, key, got[key], c)
		}
	}
	if pc.Size() != len(ref) {
		t.Fatalf("%s: Size %d, reference %d", what, pc.Size(), len(ref))
	}
}

// TestDifferentialDenseBuildPC checks every representation — dense, map
// (forced via DenseLimit -1) and byte-string — against the reference
// group-by, for sequential and sharded builds.
func TestDifferentialDenseBuildPC(t *testing.T) {
	for ci, cfg := range diffConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0xDE45E))
			for _, s := range diffAttrSets(cfg.attrs, rng) {
				ref := refCounts(d, s)
				dumpEqual(t, ref, must(BuildPC(d, s, CountOptions{Workers: 1})), fmt.Sprintf("set %v BuildPC", s))
				for _, workers := range diffWorkerCounts {
					opts := testCountOptions(workers)
					dumpEqual(t, ref, must(BuildPC(d, s, opts)),
						fmt.Sprintf("set %v workers=%d dense", s, workers))
					opts.DenseLimit = -1
					pc := must(BuildPC(d, s, opts))
					if pcRepr(pc) == "dense" {
						t.Fatalf("set %v: DenseLimit=-1 still produced a dense PC", s)
					}
					dumpEqual(t, ref, pc, fmt.Sprintf("set %v workers=%d map-forced", s, workers))
				}
			}
		})
	}
}

// TestDensePathSelection pins the routing rule: small key spaces land on
// the dense representation, byte-key sets never do, and the decision is
// identical for sequential and sharded builds.
func TestDensePathSelection(t *testing.T) {
	cfg := diffConfig{rows: 3000, attrs: 6, domain: 8, nullRate: 0.05}
	d := diffDataset(t, cfg, 42)
	full := lattice.FullSet(cfg.attrs) // 8^6 = 262144 ≤ 16×3000+64 is false → sorted
	small := lattice.NewAttrSet(0, 1)  // 64 slots → dense
	if got := pcRepr(must(BuildPC(d, small, CountOptions{Workers: 1}))); got != "dense" {
		t.Errorf("small set repr = %s, want dense", got)
	}
	if got := pcRepr(must(BuildPC(d, full, CountOptions{Workers: 1}))); got != "sorted" {
		t.Errorf("full set repr = %s, want sorted (radix 262144 over 3000 rows)", got)
	}
	for _, workers := range diffWorkerCounts {
		seq := must(BuildPC(d, small, CountOptions{Workers: 1}))
		par := must(BuildPC(d, small, testCountOptions(workers)))
		if pcRepr(seq) != pcRepr(par) {
			t.Errorf("workers=%d: repr %s vs sequential %s", workers, pcRepr(par), pcRepr(seq))
		}
	}
	wide := diffDataset(t, diffConfigs[6], 7) // 65000^4 overflows uint64
	if got := pcRepr(must(BuildPC(wide, lattice.FullSet(4), CountOptions{Workers: 1}))); got != "bytes" {
		t.Errorf("wide set repr = %s, want bytes", got)
	}
}

// TestKeyBlockMatchesKeyRow checks the columnar key-vector decode against
// the per-row encoder, including NULL rows and block boundaries.
func TestKeyBlockMatchesKeyRow(t *testing.T) {
	for ci, cfg := range diffConfigs {
		if cfg.domain >= 60000 {
			continue // byte-key config: KeyBlock requires Fits
		}
		d := diffDataset(t, cfg, uint64(ci)+3)
		cols := datasetCols(d)
		rng := rand.New(rand.NewPCG(uint64(ci), 0xB10C))
		for _, s := range diffAttrSets(cfg.attrs, rng) {
			k := NewKeyer(d, s)
			if !k.Fits() {
				continue
			}
			rows := d.NumRows()
			out := make([]uint64, keyBlockRows)
			for lo := 0; lo < rows; lo += keyBlockRows {
				hi := min(lo+keyBlockRows, rows)
				k.KeyBlock(cols, lo, hi, out)
				for r := lo; r < hi; r++ {
					key, ok := k.KeyRow(cols, r)
					want := key
					if !ok {
						want = InvalidKey
					}
					if out[r-lo] != want {
						t.Fatalf("set %v row %d: KeyBlock %d, KeyRow (%d, %v)", s, r, out[r-lo], key, ok)
					}
				}
			}
		}
	}
}

// TestFusedScanStats checks kernel-path accounting: every set of a sized
// frontier is counted on exactly one path, and disabling the dense kernel
// moves its sets to the map path.
func TestFusedScanStats(t *testing.T) {
	cfg := diffConfig{rows: 2000, attrs: 5, domain: 4, nullRate: 0}
	d := diffDataset(t, cfg, 5)
	var sets []lattice.AttrSet
	lattice.Combinations(cfg.attrs, 2, func(s lattice.AttrSet) bool {
		sets = append(sets, s)
		return true
	})
	var st ScanStats
	opts := testCountOptions(2)
	opts.Stats = &st
	must2(LabelSizes(d, sets, -1, opts))
	if st.Dense != len(sets) || st.Map != 0 || st.Bytes != 0 {
		t.Errorf("dense stats = %+v, want Dense=%d", st, len(sets))
	}
	st = ScanStats{}
	opts.DenseLimit = -1
	must2(LabelSizes(d, sets, -1, opts))
	if st.Map != len(sets) || st.Dense != 0 {
		t.Errorf("map-forced stats = %+v, want Map=%d", st, len(sets))
	}
}
