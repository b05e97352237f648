package artifact

// Round-trip identity tests: a label saved and reopened must answer every
// query bit-identically to the in-process label — sizes, full PC dumps,
// exact restricted counts, and float64 estimates — across every PC payload
// kind and key width, with spilled payloads adopted (not re-counted) and
// reopened read-only.

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// genDataset builds a random dataset with the given shape.
func genDataset(t *testing.T, rows, attrs, domain int, nullRate float64, seed uint64) *dataset.Dataset {
	t.Helper()
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	bld := dataset.NewBuilder("roundtrip", names...)
	for a := 0; a < attrs; a++ {
		for v := 0; v < domain; v++ {
			if _, err := bld.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xA57))
	vals := make([]string, attrs)
	for r := 0; r < rows; r++ {
		for a := range vals {
			if nullRate > 0 && rng.Float64() < nullRate {
				vals[a] = ""
			} else {
				vals[a] = fmt.Sprintf("v%d", rng.IntN(domain))
			}
		}
		bld.AppendStrings(vals...)
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// pcDump flattens a PC into comparable form.
func pcDump(pc *core.PC) map[string]int {
	out := make(map[string]int)
	noErr(pc.EachCtx(nil, lattice.MaxAttrs, func(vals []uint16, c int) bool {
		var key strings.Builder
		for _, a := range pc.Attrs().Members() {
			fmt.Fprintf(&key, "%d=%d;", a, vals[a])
		}
		out[key.String()] = c
		return true
	}))
	return out
}

// probePatterns samples patterns of varying coverage: full rows, subsets
// of S, and sets reaching outside S (estimation territory).
func probePatterns(t *testing.T, d *dataset.Dataset, n int, seed uint64) []core.Pattern {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xB09))
	var out []core.Pattern
	for i := 0; i < n; i++ {
		r := rng.IntN(d.NumRows())
		assign := map[string]string{}
		for a := 0; a < d.NumAttrs(); a++ {
			if v := d.Value(r, a); v != "" && rng.Float64() < 0.7 {
				assign[d.Attr(a).Name()] = v
			}
		}
		if len(assign) == 0 {
			continue
		}
		p, err := core.NewPattern(d, assign)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// reopenedPattern rebinds p's assignments against the reopened label's
// schema-only dataset (identifiers must line up, but build both ways to
// prove it).
func reopenedPattern(t *testing.T, d, rd *dataset.Dataset, p core.Pattern) core.Pattern {
	t.Helper()
	assign := map[string]string{}
	for _, a := range p.Attrs().Members() {
		assign[d.Attr(a).Name()] = d.Attr(a).Value(p.ValueID(a))
	}
	rp, err := core.NewPattern(rd, assign)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// assertRoundTrip saves l, reopens it, checks every answer against l's and
// returns the reopened manifest.
func assertRoundTrip(t *testing.T, d *dataset.Dataset, l *core.Label, seed uint64) *Manifest {
	t.Helper()
	probes := probePatterns(t, d, 128, seed)
	// Run every probe once pre-save: the label lazily materializes each
	// marginal index the workload needs, SaveFS persists them all, and the
	// reopened label must answer from the restored indexes verbatim — the
	// exactness of dataset-built marginals survives the round trip even on
	// NULL-bearing data.
	for _, p := range probes {
		l.Estimate(p)
	}

	dir := filepath.Join(t.TempDir(), "label-artifact")
	if err := SaveFS(l, dir, nil); err != nil {
		t.Fatal(err)
	}
	rl, m, err := OpenFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.ReleaseSpill()

	if m.TotalRows != d.NumRows() {
		t.Fatalf("manifest rows %d, want %d", m.TotalRows, d.NumRows())
	}
	if rl.Size() != l.Size() {
		t.Fatalf("reopened size %d, want %d", rl.Size(), l.Size())
	}
	if rl.Attrs() != l.Attrs() {
		t.Fatalf("reopened attrs %v, want %v", rl.Attrs(), l.Attrs())
	}
	if rl.Rows() != d.NumRows() {
		t.Fatalf("reopened Rows() %d, want %d", rl.Rows(), d.NumRows())
	}

	want, got := pcDump(l.PC()), pcDump(rl.PC())
	if len(want) != len(got) {
		t.Fatalf("reopened PC has %d patterns, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("pattern %q: reopened count %d, want %d", k, got[k], c)
		}
	}

	rd := rl.Dataset()
	for i, p := range probes {
		rp := reopenedPattern(t, d, rd, p)
		wc, wok := must2(l.CountCtx(nil, p))
		gc, gok := must2(rl.CountCtx(nil, rp))
		if wc != gc || wok != gok {
			t.Fatalf("probe %d: Count = (%d, %v), want (%d, %v)", i, gc, gok, wc, wok)
		}
		we, ge := l.Estimate(p), rl.Estimate(rp)
		if we != ge {
			t.Fatalf("probe %d: Estimate = %v, want %v (bit-identical)", i, ge, we)
		}
	}
	return m
}

// assertPCKind checks the kind and key width the manifest gives the PC
// section.
func assertPCKind(t *testing.T, m *Manifest, kind string, words int) {
	t.Helper()
	if pm := m.PCs[0]; pm.Kind != kind || wordsOf(pm) != words {
		t.Fatalf("PC section saved as %q of %d-word keys, want %q of %d", pm.Kind, wordsOf(pm), kind, words)
	}
}

func TestRoundTripDense(t *testing.T) {
	d := genDataset(t, 2000, 4, 6, 0, 0x71)
	l := must(core.BuildLabel(d, lattice.FullSet(3), core.CountOptions{}))
	assertPCKind(t, assertRoundTrip(t, d, l, 0x71), kindSorted, 1)
}

func TestRoundTripU64Map(t *testing.T) {
	d := genDataset(t, 2000, 4, 50, 0.05, 0x72)
	// 50^4 keys over 2,000 rows is past the dense tier: sorted keys.
	l := must(core.BuildLabel(d, lattice.FullSet(4), core.CountOptions{}))
	assertPCKind(t, assertRoundTrip(t, d, l, 0x72), kindSorted, 1)
}

// TestRoundTripBytesMap round-trips a sorted PC section whose keys are two
// words (65000^4 passes 2^63).
func TestRoundTripBytesMap(t *testing.T) {
	d := genDataset(t, 1500, 4, 65000, 0.05, 0x73)
	l := must(core.BuildLabel(d, lattice.FullSet(4), core.CountOptions{}))
	assertPCKind(t, assertRoundTrip(t, d, l, 0x73), kindSorted, 2)
}

func TestRoundTripSpilledU64(t *testing.T) {
	d := genDataset(t, 4000, 4, 300, 0, 0x74)
	l := must(core.BuildLabel(d, lattice.FullSet(4), core.CountOptions{
		MemBudget: 16 << 10, SpillDir: t.TempDir(),
	}))
	if !l.PC().Spilled() {
		t.Fatal("build did not spill; test shape needs adjusting")
	}
	assertPCKind(t, assertRoundTrip(t, d, l, 0x74), kindSpilled, 1)
}

// TestRoundTripSpilledBytes round-trips a spilled PC section whose keys
// are two words.
func TestRoundTripSpilledBytes(t *testing.T) {
	d := genDataset(t, 3000, 4, 65000, 0.1, 0x75)
	l := must(core.BuildLabel(d, lattice.FullSet(4), core.CountOptions{
		MemBudget: 32 << 10, SpillDir: t.TempDir(),
	}))
	if !l.PC().Spilled() {
		t.Fatal("build did not spill; test shape needs adjusting")
	}
	assertPCKind(t, assertRoundTrip(t, d, l, 0x75), kindSpilled, 2)
}

// TestOpenHoldsNoRunDescriptors: a reopened artifact keeps its runs'
// paths, not open files, so after OpenFS and a scan that loads every run of
// every spilled payload the process holds no more descriptors than before
// OpenFS, however many runs the artifact has. (A collector finalizing a file
// another test leaked may close one in between, so fewer is no failure.)
func TestOpenHoldsNoRunDescriptors(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count descriptors: %v", err)
		}
		return len(ents)
	}
	fds()
	d := genDataset(t, 4000, 4, 300, 0, 0x7D)
	full := lattice.FullSet(4)
	l := must(core.BuildLabel(d, full, core.CountOptions{MemBudget: 16 << 10, SpillDir: t.TempDir()}))
	subs := []lattice.AttrSet{full}
	for _, a := range full.Members() {
		subs = append(subs, full.Remove(a))
		if _, _, err := l.MarginalPCCtx(nil, full.Remove(a)); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "fds")
	if err := SaveFS(l, dir, nil); err != nil {
		t.Fatal(err)
	}
	l.ReleaseSpill()

	before := fds()
	rl, m, err := OpenFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.ReleaseSpill()
	runs := 0
	for _, pm := range m.PCs {
		if pm.Kind == kindSpilled {
			runs += len(pm.RunSizes)
		}
	}
	if len(m.PCs) != len(subs) || runs < 2*len(subs) {
		t.Fatalf("artifact holds %d payloads over %d runs, want %d spilled payloads of several runs", len(m.PCs), runs, len(subs))
	}
	for _, sub := range subs {
		pc, ok, err := rl.MarginalPCCtx(nil, sub)
		if sub == full {
			pc, ok = rl.PC(), true
		}
		if err != nil || !ok || !pc.Spilled() {
			t.Fatalf("payload over %v: ok=%v err=%v, want a spilled PC", sub, ok, err)
		}
		noErr(pc.EachCtx(nil, d.NumAttrs(), func([]uint16, int) bool { return true }))
	}
	if after := fds(); after > before {
		t.Fatalf("%d descriptors open after Open and a scan of %d runs, %d before Open", after, runs, before)
	}
}

// TestColdMarginalsNullFree pins the PC-summed marginal path: on a
// NULL-free dataset a reopened label whose artifact carries no
// materialized marginals must still answer subset queries bit-identically,
// because summing the PC section over S' ⊆ S loses only NULL-in-S\S' rows
// and there are none.
func TestColdMarginalsNullFree(t *testing.T) {
	d := genDataset(t, 2000, 4, 50, 0, 0x79)
	l := must(core.BuildLabel(d, lattice.FullSet(4), core.CountOptions{}))
	dir := filepath.Join(t.TempDir(), "cold")
	// SaveFS before any marginal materializes: the artifact holds only the
	// PC section.
	if err := SaveFS(l, dir, nil); err != nil {
		t.Fatal(err)
	}
	rl, m, err := OpenFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PCs) != 1 {
		t.Fatalf("artifact carries %d payloads, want just the PC section", len(m.PCs))
	}
	assertPCKind(t, m, kindSorted, 1)
	rd := rl.Dataset()
	for i, p := range probePatterns(t, d, 128, 0x7A) {
		rp := reopenedPattern(t, d, rd, p)
		wc, wok := must2(l.CountCtx(nil, p))
		gc, gok := must2(rl.CountCtx(nil, rp))
		if wc != gc || wok != gok {
			t.Fatalf("probe %d: Count = (%d, %v), want (%d, %v)", i, gc, gok, wc, wok)
		}
		if we, ge := l.Estimate(p), rl.Estimate(rp); we != ge {
			t.Fatalf("probe %d: Estimate = %v, want %v", i, ge, we)
		}
	}
}

// TestSaveAdoptionKeepsSourceLabelLive pins the adoption contract: after
// SaveFS relocates a spilled PC's runs, the original in-process label keeps
// answering queries from the artifact's files.
func TestSaveAdoptionKeepsSourceLabelLive(t *testing.T) {
	d := genDataset(t, 4000, 4, 300, 0, 0x76)
	l := must(core.BuildLabel(d, lattice.FullSet(4), core.CountOptions{
		MemBudget: 16 << 10, SpillDir: t.TempDir(),
	}))
	if !l.PC().Spilled() {
		t.Fatal("build did not spill")
	}
	before := pcDump(l.PC())
	dir := filepath.Join(t.TempDir(), "adopted")
	if err := SaveFS(l, dir, nil); err != nil {
		t.Fatal(err)
	}
	after := pcDump(l.PC())
	if len(before) != len(after) {
		t.Fatalf("source label lost patterns after adoption: %d -> %d", len(before), len(after))
	}
	for k, c := range before {
		if after[k] != c {
			t.Fatalf("pattern %q: %d -> %d after adoption", k, c, after[k])
		}
	}
	// Releasing the source label must not delete the artifact's runs.
	l.ReleaseSpill()
	if _, _, err := OpenFS(dir, nil); err != nil {
		t.Fatalf("artifact unreadable after source release: %v", err)
	}
}

func TestSaveRefusesNonEmptyDir(t *testing.T) {
	d := genDataset(t, 100, 3, 4, 0, 0x77)
	l := must(core.BuildLabel(d, lattice.FullSet(2), core.CountOptions{}))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveFS(l, dir, nil); err == nil {
		t.Fatal("Save accepted a non-empty directory")
	}
}

func TestOpenRejectsUnknownVersion(t *testing.T) {
	d := genDataset(t, 100, 3, 4, 0, 0x78)
	l := must(core.BuildLabel(d, lattice.FullSet(2), core.CountOptions{}))
	dir := filepath.Join(t.TempDir(), "vbad")
	if err := SaveFS(l, dir, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(data), fmt.Sprintf(`"format_version": %d`, FormatVersion), `"format_version": 99`, 1)
	if mangled == string(data) {
		t.Fatal("version field not found in manifest")
	}
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFS(dir, nil); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("Open of version-99 artifact: %v, want format-version error", err)
	}
}

func TestOpenMissingManifest(t *testing.T) {
	if _, _, err := OpenFS(t.TempDir(), nil); err == nil {
		t.Fatal("Open accepted a directory without a manifest")
	}
}

// TestWideKeysRoundTrip saves and reopens labels over 30 attributes of 5
// values (5^30 > 2^63: two-word keys) and 60 (three words), with 5%
// NULLs, built in memory and spilled at 1, 2 and 8 workers: the reopened
// PC section holds exactly the naive group-by of the rows.
func TestWideKeysRoundTrip(t *testing.T) {
	for _, tc := range []struct{ attrs, words int }{{30, 2}, {60, 3}} {
		d := genDataset(t, 2000, tc.attrs, 5, 0.05, uint64(0x7B+tc.attrs))
		full := lattice.FullSet(tc.attrs)
		want := naiveDump(d, full)
		for _, workers := range []int{1, 2, 8} {
			for _, budget := range []int64{0, 2 << 10} {
				l := must(core.BuildLabel(d, full, core.CountOptions{Workers: workers, MemBudget: budget, SpillDir: t.TempDir()}))
				dir := filepath.Join(t.TempDir(), "wide")
				if err := SaveFS(l, dir, nil); err != nil {
					t.Fatal(err)
				}
				l.ReleaseSpill()
				rl, m, err := OpenFS(dir, nil)
				if err != nil {
					t.Fatal(err)
				}
				kind := kindSorted
				if budget > 0 {
					kind = kindSpilled
				}
				assertPCKind(t, m, kind, tc.words)
				if got := pcDump(rl.PC()); !maps.Equal(got, want) || rl.Size() != len(want) {
					t.Fatalf("%d attributes, workers=%d budget=%d: reopened PC holds %d patterns (size %d), the rows %d",
						tc.attrs, workers, budget, len(got), rl.Size(), len(want))
				}
				rl.ReleaseSpill()
			}
		}
	}
}

// naiveDump is pcDump's form of the group-by of d's rows over s, counted
// row by row.
func naiveDump(d *dataset.Dataset, s lattice.AttrSet) map[string]int {
	out := make(map[string]int)
rows:
	for r := 0; r < d.NumRows(); r++ {
		var key strings.Builder
		for _, a := range s.Members() {
			v := d.Col(a)[r]
			if v == dataset.Null {
				continue rows
			}
			fmt.Fprintf(&key, "%d=%d;", a, v)
		}
		out[key.String()]++
	}
	return out
}
