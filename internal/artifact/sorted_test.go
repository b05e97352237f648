package artifact

// Tests of a reopened label over a high-cardinality key space, the shape
// of the benchmark's hicard-spill workload: 4 attributes of domain 200,
// whose full set spills under a 4 MiB budget and is served merge-on-read.
// Its marginals must get the representation a build over the label's rows
// would pick, and its uint64 runs, cached in the sorted layout, must all
// pin within the budget, so that serving stops reading run files. The
// declared key counts that size that cache must be backed by records.

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// hicardBudget is the hicard-spill workload's memory budget.
const hicardBudget = 4 << 20

// reopenHicard builds a 4 × domain-200 label over rows rows under the
// 4 MiB budget, saves it before any marginal materializes, and reopens it.
func reopenHicard(t *testing.T, rows int, seed uint64) (d *dataset.Dataset, l *core.Label, m *Manifest) {
	t.Helper()
	d = genDataset(t, rows, 4, 200, 0, seed)
	built := must(core.BuildLabel(d, lattice.FullSet(4), core.CountOptions{
		Workers: 2, MemBudget: hicardBudget, SpillDir: t.TempDir(),
	}))
	dir := filepath.Join(t.TempDir(), "hicard")
	if err := Save(built, dir); err != nil {
		t.Fatal(err)
	}
	built.ReleaseSpill()
	l, m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.ReleaseSpill)
	if !l.PC().Spilled() {
		t.Fatal("the reopened label is not merge-on-read; the test shape needs adjusting")
	}
	return d, l, m
}

// reprKind names the storage representation a PC landed on.
func reprKind(pc *core.PC) string {
	switch r := pc.Repr(); {
	case r.Spill != nil:
		return "spilled"
	case r.Dense != nil:
		return "dense"
	case r.U != nil:
		return "sorted"
	default:
		return "bytes"
	}
}

// properSubsets lists every nonempty proper subset of s.
func properSubsets(s lattice.AttrSet) []lattice.AttrSet {
	var out []lattice.AttrSet
	for sub := lattice.AttrSet(1); sub < s; sub++ {
		if sub.ProperSubsetOf(s) {
			out = append(out, sub)
		}
	}
	return out
}

// TestReopenedMarginalsMatchBuild: a reopened label's dataset is
// schema-only, so its marginals must be sized by the label's row count.
// Sized by the dataset's zero rows, every marginal over more than 64 key
// slots became a hash map; here the one- and two-attribute marginals are
// dense and the three-attribute ones sorted, exactly as BuildPC over the
// same rows makes them.
func TestReopenedMarginalsMatchBuild(t *testing.T) {
	d, l, _ := reopenHicard(t, 100000, 0x181)
	for _, sub := range properSubsets(l.Attrs()) {
		got, ok, err := l.MarginalPCCtx(nil, sub)
		if err != nil || !ok {
			t.Fatalf("marginal %v: ok=%v err=%v", sub, ok, err)
		}
		want := must(core.BuildPC(d, sub, core.CountOptions{}))
		if gk, wk := reprKind(got), reprKind(want); gk != wk {
			t.Errorf("marginal %v is %s, BuildPC makes it %s", sub, gk, wk)
		}
		if sub.Size() < 3 && reprKind(got) != "dense" {
			t.Errorf("marginal %v over %d attributes is %s, want dense", sub, sub.Size(), reprKind(got))
		}
		gd, wd := pcDump(got), pcDump(want)
		if len(gd) != len(wd) {
			t.Fatalf("marginal %v holds %d patterns, BuildPC %d", sub, len(gd), len(wd))
		}
		for k, c := range wd {
			if gd[k] != c {
				t.Fatalf("marginal %v: pattern %s counts %d, BuildPC %d", sub, k, gd[k], c)
			}
		}
	}
}

// TestSpilledRunsPinWithinBudget pins the read-path mechanism with counts,
// not timings: every nonempty run loads once, on the first full scan, and
// pins; from then on a second scan, every proper-subset marginal and
// 10,000 lookups read no run file, and a pinned-run lookup allocates
// nothing.
func TestSpilledRunsPinWithinBudget(t *testing.T) {
	// The workload's 200,000 rows spill into six runs at two workers; at
	// the 56-byte map model only two of them fit the budget.
	d, l, m := reopenHicard(t, 200000, 0x182)
	pc := l.PC()
	nonempty := int64(0)
	for _, n := range m.PCs[0].RunSizes {
		if n > 0 {
			nonempty++
		}
	}
	loads := func() int64 {
		st, ok := pc.SpillReadStats()
		if !ok {
			t.Fatal("no read stats on a spilled PC")
		}
		return st.RunLoads
	}
	n := d.NumAttrs()
	scan := func() {
		noErr(pc.EachCtx(nil, n, func([]uint16, int) bool { return true }))
	}
	scan()
	if got := loads(); got != nonempty {
		t.Fatalf("one scan loaded %d runs, want the %d nonempty runs", got, nonempty)
	}
	scan()
	for _, sub := range properSubsets(l.Attrs()) {
		if _, _, err := l.MarginalPCCtx(nil, sub); err != nil {
			t.Fatal(err)
		}
	}
	rd := l.Dataset()
	probes := probePatterns(t, d, 10000, 0x183)
	for i := 0; i < 10000; i++ {
		if _, _, err := l.CountCtx(nil, reopenedPattern(t, d, rd, probes[i%len(probes)])); err != nil {
			t.Fatal(err)
		}
	}
	if got := loads(); got != nonempty {
		t.Fatalf("after the first scan, reads loaded %d more runs", got-nonempty)
	}
	vals := make([]uint16, n)
	cols := make([][]uint16, n)
	for a := range cols {
		cols[a] = d.Col(a)
		vals[a] = cols[a][0]
	}
	want := 0
	noErr(pc.EachCtx(nil, n, func(v []uint16, c int) bool {
		for a := range vals {
			if v[a] != vals[a] {
				return true
			}
		}
		want = c
		return false
	}))
	if allocs := testing.AllocsPerRun(100, func() {
		if c, err := pc.LookupValsCtx(nil, vals); err != nil || c != want {
			t.Fatalf("lookup = (%d, %v), want %d", c, err, want)
		}
	}); allocs != 0 {
		t.Errorf("a pinned-run lookup allocates %v times, want 0", allocs)
	}
}

// TestOpenRejectsSpilledSizeBeyondRecords: a spilled payload's declared
// distinct-key counts size the read path's allocations, so a manifest
// declaring more keys than its runs hold records fails Open instead of
// reaching them — also when its run sizes only sum to its size by
// wrapping around. Counts are bounded by the label's rows in turn: a row
// count outside int32, or runs holding more records than the label has
// rows, fail Open too.
func TestOpenRejectsSpilledSizeBeyondRecords(t *testing.T) {
	d := genDataset(t, 4000, 4, 300, 0, 0x184)
	l := must(core.BuildLabel(d, lattice.FullSet(4), core.CountOptions{MemBudget: 16 << 10, SpillDir: t.TempDir()}))
	dir := filepath.Join(t.TempDir(), "a")
	if err := Save(l, dir); err != nil {
		t.Fatal(err)
	}
	l.ReleaseSpill()
	_, saved, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pm := saved.PCs[0]; pm.Kind != kindSpilledU64 || len(pm.RunSizes) < 3 {
		t.Fatalf("PC section is %s over %d runs, want %s over at least 3", pm.Kind, len(pm.RunSizes), kindSpilledU64)
	}
	for _, tc := range []struct {
		name string
		edit func(m *Manifest)
		want error
	}{
		{"size beyond records", func(m *Manifest) {
			m.PCs[0].RunSizes[0] += 1 << 40
			m.PCs[0].Size += 1 << 40
		}, ErrCorrupt},
		{"run sizes wrap", func(m *Manifest) {
			// MaxInt64 + MaxInt64 wraps to -2, which run 2 makes up: the
			// sum still equals the size, which is within the records.
			pm := &m.PCs[0]
			pm.Size -= pm.RunSizes[0] + pm.RunSizes[1]
			pm.RunSizes[0], pm.RunSizes[1] = math.MaxInt64, math.MaxInt64
			pm.RunSizes[2] += 2
		}, ErrManifest},
		{"rows past int32", func(m *Manifest) { m.TotalRows = math.MaxInt32 + 1 }, ErrManifest},
		{"negative rows", func(m *Manifest) { m.TotalRows = -1 }, ErrManifest},
		{"records beyond rows", func(m *Manifest) { m.TotalRows-- }, ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := *saved
			m.PCs = slices.Clone(saved.PCs)
			m.PCs[0].RunSizes = slices.Clone(saved.PCs[0].RunSizes)
			tc.edit(&m)
			data, err := encodeManifest(&m)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Open(dir); !errors.Is(err, tc.want) {
				t.Fatalf("Open = %v, want %v", err, tc.want)
			}
		})
	}
}
