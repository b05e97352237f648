package artifact

// Tests for artifact-level incremental maintenance: MergeIntoFS must advance
// the epoch atomically — every crash or fault leaves a directory that opens
// as either the old generation or the new one, bit-identical to the
// corresponding rebuild, never torn — and the epoch binding must reject
// deltas built against the wrong generation.

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
)

// mergeOracle holds exact probe answers for one generation of the data.
type mergeOracle struct {
	d      *dataset.Dataset // the full dataset probes were phrased against
	counts []int
	oks    []bool
}

func newMergeOracle(t *testing.T, full, gen *dataset.Dataset, probes []core.Pattern) *mergeOracle {
	t.Helper()
	l := must(core.BuildLabel(gen, lattice.FullSet(gen.NumAttrs()), core.CountOptions{}))
	o := &mergeOracle{d: full}
	for _, p := range probes {
		c, ok := must2(l.CountCtx(nil, p))
		o.counts = append(o.counts, c)
		o.oks = append(o.oks, ok)
	}
	return o
}

func (o *mergeOracle) check(t *testing.T, trial string, probes []core.Pattern, l *core.Label) {
	t.Helper()
	rd := l.Dataset()
	for i, p := range probes {
		rp := reopenedPattern(t, o.d, rd, p)
		c, ok, err := l.CountCtx(nil, rp)
		if err != nil {
			t.Fatalf("%s: probe %d failed: %v", trial, i, err)
		}
		if c != o.counts[i] || ok != o.oks[i] {
			t.Fatalf("%s: probe %d Count = (%d, %v), oracle (%d, %v) — wrong answer",
				trial, i, c, ok, o.counts[i], o.oks[i])
		}
	}
}

// mergeFixture is the shared shape: a dataset split into a labeled base and
// an appended suffix, probes, and per-generation oracles.
type mergeFixture struct {
	d, base, delta *dataset.Dataset
	probes         []core.Pattern
	baseO, fullO   *mergeOracle
}

func newMergeFixture(t *testing.T) *mergeFixture {
	t.Helper()
	// NULL-free, like the sweep oracles: lazily-derived marginals (what a
	// reopened or merged label serves) are exact only without NULLs, and
	// these tests pin exact answers. NULL-bearing merges are covered at the
	// PC level by the core differential suite.
	d := genDataset(t, 2500, 4, 200, 0, 0xA10)
	base, err := d.Slice(0, 2400)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := d.Slice(2400, d.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	probes := probePatterns(t, d, 48, 0xA11)
	return &mergeFixture{
		d: d, base: base, delta: delta, probes: probes,
		baseO: newMergeOracle(t, d, base, probes),
		fullO: newMergeOracle(t, d, d, probes),
	}
}

// saveBase saves a spilled label over the base rows and returns its
// manifest. Spilling matters: the merge must then rewrite run files inside
// the committed artifact directory, the riskiest payload shape.
func (f *mergeFixture) saveBase(t *testing.T, dir string) *Manifest {
	t.Helper()
	l := must(core.BuildLabel(f.base, lattice.FullSet(4), core.CountOptions{
		MemBudget: 16 << 10, SpillDir: t.TempDir(),
	}))
	defer l.ReleaseSpill()
	if !l.PC().Spilled() {
		t.Fatal("base label did not spill; fixture shape needs adjusting")
	}
	if err := SaveFS(l, dir, nil); err != nil {
		t.Fatal(err)
	}
	_, m, err := OpenFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (f *mergeFixture) deltaLabel(t *testing.T) *core.Label {
	t.Helper()
	return must(core.BuildLabel(f.delta, lattice.FullSet(4), core.CountOptions{}))
}

// copyDir clones a saved artifact so each trial mutates a fresh copy.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "a")
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestMergeIntoDifferential(t *testing.T) {
	f := newMergeFixture(t)
	dir := filepath.Join(t.TempDir(), "a")
	m := f.saveBase(t, dir)
	if m.Epoch != 1 {
		t.Fatalf("fresh artifact epoch = %d, want 1", m.Epoch)
	}

	dl := f.deltaLabel(t)
	nm, err := MergeIntoFS(dir, dl, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Epoch != 2 || nm.TotalRows != f.d.NumRows() {
		t.Fatalf("merged manifest: epoch %d rows %d, want 2, %d", nm.Epoch, nm.TotalRows, f.d.NumRows())
	}
	rl, rm, err := OpenFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Epoch != 2 {
		t.Fatalf("reopened epoch = %d, want 2", rm.Epoch)
	}
	f.fullO.check(t, "merged", f.probes, rl)
	rl.ReleaseSpill()

	// The superseded generation's payload files must be gone, and only
	// its run directories stay, for labels opened before the merge.
	assertGenerations(t, dir, rm, m)

	// A delta bound to the superseded generation must now be refused.
	dl2 := f.deltaLabel(t)
	if _, err := MergeIntoFS(dir, dl2, m, nil); !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("stale-base merge: got %v, want ErrEpochMismatch", err)
	}
	// And merging against the current manifest keeps working: epoch 3.
	nm2, err := MergeIntoFS(dir, dl2, rm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nm2.Epoch != 3 {
		t.Fatalf("second merge epoch = %d, want 3", nm2.Epoch)
	}
	// The second merge removed the first generation's run directories.
	assertGenerations(t, dir, nm2, rm)
}

// assertGenerations fails unless dir holds exactly the manifest, cur's
// payloads and the run directories of prev, the generation cur superseded.
func assertGenerations(t *testing.T, dir string, cur, prev *Manifest) {
	t.Helper()
	want := map[string]bool{manifestName: true}
	for _, pm := range cur.PCs {
		want[pm.File+pm.Dir] = true
	}
	for _, pm := range prev.PCs {
		if pm.Dir != "" {
			want[pm.Dir] = true
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !want[e.Name()] {
			t.Errorf("epoch %d artifact holds %q, neither its payload nor a run directory of epoch %d", cur.Epoch, e.Name(), prev.Epoch)
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("epoch %d artifact lacks %q", cur.Epoch, name)
	}
}

// TestOldGenerationReadsAfterMerge: a spilled PC reads its runs by path,
// so a merge keeps the run directories of the generation it supersedes.
// After the merge, a label opened before it and the label whose runs SaveFS
// adopted both load every run of every spilled payload and answer with
// the pre-merge counts. The next merge removes those directories.
func TestOldGenerationReadsAfterMerge(t *testing.T) {
	f := newMergeFixture(t)
	full := lattice.FullSet(4)
	subs := []lattice.AttrSet{full.Remove(0), full.Remove(3)}
	l := must(core.BuildLabel(f.base, full, core.CountOptions{MemBudget: 16 << 10, SpillDir: t.TempDir()}))
	defer l.ReleaseSpill()
	ref := must(core.BuildLabel(f.base, full, core.CountOptions{}))
	for _, sub := range subs {
		for _, lab := range []*core.Label{l, ref} {
			if _, _, err := lab.MarginalPCCtx(nil, sub); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := filepath.Join(t.TempDir(), "a")
	if err := SaveFS(l, dir, nil); err != nil {
		t.Fatal(err)
	}
	ol, m, err := OpenFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ol.ReleaseSpill()
	for i, pm := range m.PCs {
		if pm.Kind != kindSpilled {
			t.Fatalf("payload %d is %s; the test needs every payload spilled", i, pm.Kind)
		}
	}

	half := f.base.NumRows() + f.delta.NumRows()/2
	deltas := []*dataset.Dataset{must(f.d.Slice(f.base.NumRows(), half)), must(f.d.Slice(half, f.d.NumRows()))}
	merge := func(delta *dataset.Dataset, base *Manifest) *Manifest {
		t.Helper()
		nm, err := MergeIntoFS(dir, must(core.BuildLabel(delta, full, core.CountOptions{})), base, nil)
		if err != nil {
			t.Fatal(err)
		}
		return nm
	}
	nm := merge(deltas[0], m)
	assertGenerations(t, dir, nm, m)

	sorted := func(pc *core.PC) []string {
		e := eachEntries(pc, 4)
		slices.Sort(e)
		return e
	}
	for name, lab := range map[string]*core.Label{"reopened": ol, "saved": l} {
		pcs, want := []*core.PC{lab.PC()}, []*core.PC{ref.PC()}
		for _, sub := range subs {
			got, ok, err := lab.MarginalPCCtx(nil, sub)
			if err != nil || !ok {
				t.Fatalf("%s label, marginal %v: ok=%v err=%v", name, sub, ok, err)
			}
			w, _, _ := ref.MarginalPCCtx(nil, sub)
			pcs, want = append(pcs, got), append(want, w)
		}
		for i, pc := range pcs {
			if !pc.Spilled() {
				t.Fatalf("%s label, PC %d is not spilled", name, i)
			}
			if g, w := sorted(pc), sorted(want[i]); !slices.Equal(g, w) {
				t.Fatalf("%s label, PC %d after the merge: %d entries, the base rows count %d or others", name, i, len(g), len(w))
			}
		}
	}

	assertGenerations(t, dir, merge(deltas[1], nm), nm)
}

func TestSaveDeltaAndMergeDeltaInto(t *testing.T) {
	f := newMergeFixture(t)
	baseDir := filepath.Join(t.TempDir(), "base")
	m := f.saveBase(t, baseDir)

	dl := f.deltaLabel(t)
	deltaDir := filepath.Join(t.TempDir(), "delta")
	if err := SaveDeltaFS(dl, deltaDir, m, nil); err != nil {
		t.Fatal(err)
	}
	_, dm, err := OpenFS(deltaDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dm.DeltaOf == nil || dm.DeltaOf.BaseEpoch != 1 || dm.DeltaOf.BaseRows != f.base.NumRows() {
		t.Fatalf("delta binding = %+v", dm.DeltaOf)
	}

	nm, err := MergeDeltaIntoFS(baseDir, deltaDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", nm.Epoch)
	}
	rl, _, err := OpenFS(baseDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.fullO.check(t, "delta-artifact merge", f.probes, rl)
	rl.ReleaseSpill()

	// Replaying the same delta artifact must fail the epoch check, not
	// double-count.
	if _, err := MergeDeltaIntoFS(baseDir, deltaDir, nil); !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("replay: got %v, want ErrEpochMismatch", err)
	}
	// A plain (non-delta) artifact is not mergeable this way.
	if _, err := MergeDeltaIntoFS(baseDir, baseDir, nil); !errors.Is(err, ErrManifest) {
		t.Fatalf("non-delta source: got %v, want ErrManifest", err)
	}
	// SaveDeltaFS demands a base binding.
	if err := SaveDeltaFS(dl, filepath.Join(t.TempDir(), "x"), nil, nil); err == nil {
		t.Fatal("SaveDeltaFS accepted a nil base manifest")
	}
}

// TestMergeIntoFaultSweep: an I/O error at any injection point of the merge
// must surface cleanly, and the directory must still open as exactly one of
// the two generations with bit-identical answers.
func TestMergeIntoFaultSweep(t *testing.T) {
	f := newMergeFixture(t)
	tmpl := filepath.Join(t.TempDir(), "tmpl")
	m := f.saveBase(t, tmpl)

	counts := recordOps(func(ffs *iofault.FaultFS) {
		dir := copyDir(t, tmpl)
		dl := f.deltaLabel(t)
		if _, err := MergeIntoFS(dir, dl, m, ffs); err != nil {
			t.Fatalf("clean merge failed: %v", err)
		}
	})
	for _, op := range iofault.Ops() {
		for _, n := range sweepPoints(counts[op], 8) {
			trial := "merge/" + op.String()
			dir := copyDir(t, tmpl)
			ffs := iofault.NewFaultFS(nil)
			ffs.FailAt(op, n, nil)
			dl := f.deltaLabel(t)
			_, mergeErr := MergeIntoFS(dir, dl, m, ffs)
			// Success pins the new generation. An error usually leaves the
			// old one, but a fault after the commit rename (the directory
			// fsync, the stale-payload sweep) surfaces as an error with the
			// new generation already durable — either is consistent.
			f.checkGeneration(t, trial, n, dir, mergeErr == nil, false)
		}
	}
}

// TestMergeIntoKillSweep is the crash-consistency half: the process dies at
// each operation of the merge. The manifest rename is the commit point —
// the directory must open as old-or-new, never torn — and a post-crash
// retry of the merge must succeed against the surviving generation.
func TestMergeIntoKillSweep(t *testing.T) {
	f := newMergeFixture(t)
	tmpl := filepath.Join(t.TempDir(), "tmpl")
	m := f.saveBase(t, tmpl)

	counts := recordOps(func(ffs *iofault.FaultFS) {
		dir := copyDir(t, tmpl)
		dl := f.deltaLabel(t)
		if _, err := MergeIntoFS(dir, dl, m, ffs); err != nil {
			t.Fatalf("clean merge failed: %v", err)
		}
	})
	for _, op := range iofault.Ops() {
		for _, n := range sweepPoints(counts[op], 6) {
			trial := "kill/" + op.String()
			dir := copyDir(t, tmpl)
			ffs := iofault.NewFaultFS(nil)
			ffs.KillAt(op, n)
			dl := f.deltaLabel(t)
			_, mergeErr := MergeIntoFS(dir, dl, m, ffs)
			if mergeErr == nil && ffs.Killed() {
				t.Fatalf("%s@%d: merge swallowed the crash", trial, n)
			}
			epoch := f.checkGeneration(t, trial, n, dir, false, false)

			// Restart semantics: a rerun of the update against whatever
			// generation survived must complete and land on full counts.
			rl, rm, err := OpenFS(dir, nil)
			if err != nil {
				t.Fatalf("%s@%d: post-crash open: %v", trial, n, err)
			}
			rl.ReleaseSpill()
			if epoch == 1 {
				dl2 := f.deltaLabel(t)
				if _, err := MergeIntoFS(dir, dl2, rm, nil); err != nil {
					t.Fatalf("%s@%d: post-crash retry failed: %v", trial, n, err)
				}
				rl2, rm2, err := OpenFS(dir, nil)
				if err != nil {
					t.Fatalf("%s@%d: open after retry: %v", trial, n, err)
				}
				if rm2.Epoch != 2 {
					t.Fatalf("%s@%d: retry epoch = %d, want 2", trial, n, rm2.Epoch)
				}
				f.fullO.check(t, trial+"/retry", f.probes, rl2)
				rl2.ReleaseSpill()
			}
		}
	}
}

// checkGeneration opens dir through the real filesystem and asserts it is
// exactly one untorn generation: epoch 1 answering like the base rebuild or
// epoch 2 answering like the full rebuild. mustNew/mustOld pin the outcome
// when the merge's own return value already decides it.
func (f *mergeFixture) checkGeneration(t *testing.T, trial string, n int64, dir string, mustNew, mustOld bool) int64 {
	t.Helper()
	rl, rm, err := OpenFS(dir, nil)
	if err != nil {
		t.Fatalf("%s@%d: artifact no longer opens: %v", trial, n, err)
	}
	defer rl.ReleaseSpill()
	switch {
	case rm.Epoch == 1 && !mustNew:
		if rm.TotalRows != f.base.NumRows() {
			t.Fatalf("%s@%d: epoch 1 with %d rows", trial, n, rm.TotalRows)
		}
		f.baseO.check(t, trial, f.probes, rl)
	case rm.Epoch == 2 && !mustOld:
		if rm.TotalRows != f.d.NumRows() {
			t.Fatalf("%s@%d: epoch 2 with %d rows", trial, n, rm.TotalRows)
		}
		f.fullO.check(t, trial, f.probes, rl)
	default:
		t.Fatalf("%s@%d: epoch %d (mustNew=%v mustOld=%v)", trial, n, rm.Epoch, mustNew, mustOld)
	}
	return rm.Epoch
}

// dirRecorder is an iofault.FS that records every directory it creates.
type dirRecorder struct {
	iofault.FS
	dirs []string
}

func (r *dirRecorder) Mkdir(name string, perm fs.FileMode) error {
	r.dirs = append(r.dirs, name)
	return r.FS.Mkdir(name, perm)
}

func (r *dirRecorder) MkdirAll(name string, perm fs.FileMode) error {
	r.dirs = append(r.dirs, name)
	return r.FS.MkdirAll(name, perm)
}

func (r *dirRecorder) MkdirTemp(dir, pattern string) (string, error) {
	name, err := r.FS.MkdirTemp(dir, pattern)
	if err == nil {
		r.dirs = append(r.dirs, name)
	}
	return name, err
}

// TestMergeStagesRunsInsideArtifact: the runs a spilled merge writes are
// staged inside the artifact, so adopting them is a rename on the
// artifact's own filesystem — never a copy out of the temp directory —
// and the staging directory is gone once the merge commits, leaving the
// merged payloads and the superseded run directories.
func TestMergeStagesRunsInsideArtifact(t *testing.T) {
	f := newMergeFixture(t)
	dir := filepath.Join(t.TempDir(), "a")
	m := f.saveBase(t, dir)
	rec := &dirRecorder{FS: iofault.OS}
	if _, err := MergeIntoFS(dir, f.deltaLabel(t), m, rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.dirs) == 0 {
		t.Fatal("the merge created no directory; the recorder saw nothing")
	}
	for _, d := range rec.dirs {
		if rel, err := filepath.Rel(dir, d); err != nil || rel == "." || strings.HasPrefix(rel, "..") {
			t.Errorf("the merge created %s outside the artifact %s", d, dir)
		}
	}
	_, nm, err := OpenFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertGenerations(t, dir, nm, m)
}
