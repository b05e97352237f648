package artifact

// Tests of a reopened label over a high-cardinality key space, the shape
// of the benchmark's hicard-spill workload: 4 attributes of domain 200,
// whose full set spills under a 4 MiB budget and is served merge-on-read.
// Its marginals must hold what a build over the label's rows counts, and
// its uint64 runs, cached in the sorted layout, must all pin within the
// budget, so that serving stops reading run files. The declared key
// counts that size that cache must be backed by records.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
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
// schema-only, so its marginals must be derived over the label's row
// count; each holds the patterns and counts BuildPC over the same rows
// finds. That they also get BuildPC's representation (here the one- and
// two-attribute marginals dense, the three-attribute ones sorted) is
// checked on the label Open assembles by internal/core's
// TestPortableTiersMatchBuild.
func TestReopenedMarginalsMatchBuild(t *testing.T) {
	d, l, _ := reopenHicard(t, 100000, 0x181)
	for _, sub := range properSubsets(l.Attrs()) {
		got, ok, err := l.MarginalPCCtx(nil, sub)
		if err != nil || !ok {
			t.Fatalf("marginal %v: ok=%v err=%v", sub, ok, err)
		}
		want := must(core.BuildPC(d, sub, core.CountOptions{}))
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
	if pm := saved.PCs[0]; pm.Kind != kindSpilled || len(pm.RunSizes) < 3 {
		t.Fatalf("PC section is %s over %d runs, want %s over at least 3", pm.Kind, len(pm.RunSizes), kindSpilled)
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

// TestSpilledRunLayoutAndMerge pins the sorted run layout and the merge
// over it with counts, not timings, at the benchmark's hicard-spill shape:
// the runs take at most 4.5 bytes a distinct key (a raw record took 8 a
// row); a reopened label answers exactly as BuildPC over the same rows,
// loading a run with at most 20 bytes of allocation a distinct key; and a
// merge — of a 1% delta, and of one that adds a value to a0 and so changes
// every key — answers exactly as a rebuild over the union rows, with every
// merged run strictly ascending and holding only keys routed to it.
func TestSpilledRunLayoutAndMerge(t *testing.T) {
	const rows, deltaRows = 200000, 2000
	base := genDataset(t, rows, 4, 200, 0, 0x191)
	full := lattice.FullSet(4)
	built := must(core.BuildLabel(base, full, core.CountOptions{
		Workers: 2, MemBudget: hicardBudget, SpillDir: t.TempDir(),
	}))
	dir := filepath.Join(t.TempDir(), "hicard")
	if err := Save(built, dir); err != nil {
		t.Fatal(err)
	}
	built.ReleaseSpill()
	_, m, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pm := m.PCs[0]
	if pm.Kind != kindSpilled {
		t.Fatalf("PC section is %s, want %s", pm.Kind, kindSpilled)
	}
	var runBytes int64
	for run := range pm.RunSizes {
		fi, err := os.Stat(filepath.Join(dir, pm.Dir, fmt.Sprintf("run-%04d", run)))
		if err != nil {
			t.Fatal(err)
		}
		runBytes += fi.Size()
	}
	t.Logf("%d runs take %d bytes for %d distinct keys over %d rows", len(pm.RunSizes), runBytes, pm.Size, rows)
	if per := float64(runBytes) / float64(pm.Size); per > 4.5 {
		t.Errorf("runs take %d bytes for %d distinct keys, %.2f a key, want at most 4.5", runBytes, pm.Size, per)
	}

	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	want := must(core.BuildPC(base, full, core.CountOptions{}))
	runtime.ReadMemStats(&after)
	buildAlloc := after.TotalAlloc - before.TotalAlloc
	runtime.ReadMemStats(&before)
	noErr(l.PC().EachCtx(nil, 4, func([]uint16, int) bool { return true }))
	runtime.ReadMemStats(&after)
	t.Logf("loading every run allocated %d bytes", after.TotalAlloc-before.TotalAlloc)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(pm.Size); per > 20 {
		t.Errorf("loading every run allocated %.1f bytes a distinct key, want at most 20 (BuildPC: %.1f)",
			per, float64(buildAlloc)/float64(pm.Size))
	}
	assertSamePC(t, "reopened", want, l.PC())
	l.ReleaseSpill()

	for _, tc := range []struct {
		name string
		grow bool
	}{{"delta-1pct", false}, {"delta-grows-a0", true}} {
		t.Run(tc.name, func(t *testing.T) {
			delta, union := appendRows(t, base, deltaRows, tc.grow, 0x192)
			dl := must(core.BuildLabel(delta, full, core.CountOptions{Workers: 2}))
			mdir := copyDir(t, dir)
			if _, err := MergeInto(mdir, dl, m); err != nil {
				t.Fatal(err)
			}
			ml, mm, err := Open(mdir)
			if err != nil {
				t.Fatal(err)
			}
			defer ml.ReleaseSpill()
			wantPC := must(core.BuildPC(union, full, core.CountOptions{}))
			if ml.Size() != wantPC.Size() || mm.TotalRows != union.NumRows() {
				t.Fatalf("merged label: size %d over %d rows, rebuild %d over %d", ml.Size(), mm.TotalRows, wantPC.Size(), union.NumRows())
			}
			assertSamePC(t, tc.name, wantPC, ml.PC())
			runs := ml.PC().Repr().Spill.Runs
			mpm := mm.PCs[0]
			for run := range mpm.RunSizes {
				data, err := os.ReadFile(filepath.Join(mdir, mpm.Dir, fmt.Sprintf("run-%04d", run)))
				if err != nil {
					t.Fatal(err)
				}
				entries, _, err := decodeRunRef(data, 1)
				if err != nil {
					t.Fatalf("merged run %d: %v", run, err)
				}
				if len(entries) != mpm.RunSizes[run] {
					t.Fatalf("merged run %d holds %d entries, manifest says %d", run, len(entries), mpm.RunSizes[run])
				}
				for _, e := range entries {
					if r := runs.RunOf(e.key); r != run {
						t.Fatalf("merged run %d holds key %v, which routes to run %d", run, e.key, r)
					}
				}
			}
		})
	}
}

// appendRows draws n more rows shaped like base's, with dictionaries
// extending base's — plus, when grow is set, a new value of a0 in every
// tenth row — and returns them and the union dataset over the delta's
// dictionaries.
func appendRows(t *testing.T, base *dataset.Dataset, n int, grow bool, seed uint64) (delta, union *dataset.Dataset) {
	t.Helper()
	db := dataset.NewBuilderFrom(base, "delta")
	rng := rand.New(rand.NewPCG(seed, 0xD17))
	vals := make([]string, base.NumAttrs())
	for r := 0; r < n; r++ {
		for a := range vals {
			vals[a] = fmt.Sprintf("v%d", rng.IntN(200))
		}
		if grow && r%10 == 0 {
			vals[0] = "v200"
		}
		db.AppendStrings(vals...)
	}
	delta, err := db.Build()
	if err != nil {
		t.Fatal(err)
	}
	if grow && delta.Attr(0).DomainSize() == base.Attr(0).DomainSize() {
		t.Fatal("the growing delta did not add a value to a0")
	}
	union, err = dataset.NewBuilderFrom(delta, "union").AppendRows(base).AppendRows(delta).Build()
	if err != nil {
		t.Fatal(err)
	}
	return delta, union
}

// assertSamePC checks got holds exactly want's patterns and counts.
func assertSamePC(t *testing.T, what string, want, got *core.PC) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: %d patterns, want %d", what, got.Size(), want.Size())
	}
	noErr(got.EachCtx(nil, 4, func(vals []uint16, c int) bool {
		if w := must(want.LookupValsCtx(nil, vals)); w != c {
			t.Fatalf("%s: pattern %v counts %d, want %d", what, vals, c, w)
		}
		return true
	}))
}
