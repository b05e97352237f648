package artifact

// The fault sweep is the durability layer's acceptance test: it drives
// every filesystem injection point through build → save → open → query and
// asserts the storage invariant — each trial either yields counts
// bit-identical to a clean in-memory oracle or fails with a clean typed
// error. Never a wrong answer, never a panic.
//
// The sweep is occurrence-driven: a recording pass runs each phase once on
// a counting FaultFS, then each (op class, occurrence) pair becomes one
// trial with exactly that operation failing. Op classes with many
// occurrences are sampled (evenly plus the last) to bound runtime.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
)

// sweepOracle is the clean-run ground truth: per-probe exact counts and
// bit-exact estimates from an in-memory (never spilled) label.
type sweepOracle struct {
	d      *dataset.Dataset
	probes []core.Pattern
	counts []int
	oks    []bool
	ests   []float64
}

func newSweepOracle(t *testing.T) *sweepOracle {
	t.Helper()
	d := genDataset(t, 2500, 4, 200, 0, 0x90)
	l := must(core.BuildLabel(d, lattice.FullSet(4), core.CountOptions{}))
	probes := probePatterns(t, d, 64, 0x91)
	o := &sweepOracle{d: d, probes: probes}
	for _, p := range probes {
		c, ok := must2(l.CountCtx(nil, p))
		o.counts = append(o.counts, c)
		o.oks = append(o.oks, ok)
		o.ests = append(o.ests, l.Estimate(p))
	}
	return o
}

// buildSpilled builds the label under test: same dataset, tight budget so
// the PC spills, all I/O routed through fsys.
func (o *sweepOracle) buildSpilled(t *testing.T, spillDir string, fsys iofault.FS) *core.Label {
	t.Helper()
	return must(core.BuildLabel(o.d, lattice.FullSet(4), core.CountOptions{
		MemBudget: 16 << 10, SpillDir: spillDir, FS: fsys,
	}))
}

// check runs every probe against l. A probe may fail with a clean error
// (that is the degraded path); a probe that answers must answer exactly
// like the oracle. Returns how many probes answered.
func (o *sweepOracle) check(t *testing.T, trial string, l *core.Label) int {
	t.Helper()
	rd := l.Dataset()
	answered := 0
	for i, p := range o.probes {
		rp := reopenedPattern(t, o.d, rd, p)
		c, ok, err := l.CountCtx(nil, rp)
		if err == nil {
			if c != o.counts[i] || ok != o.oks[i] {
				t.Fatalf("%s: probe %d Count = (%d, %v), oracle (%d, %v) — wrong answer",
					trial, i, c, ok, o.counts[i], o.oks[i])
			}
			answered++
		}
		if e, err := l.EstimateCtx(nil, rp); err == nil && e != o.ests[i] {
			t.Fatalf("%s: probe %d Estimate = %v, oracle %v — wrong answer", trial, i, e, o.ests[i])
		}
	}
	return answered
}

// sweepPoints samples the occurrence indexes to fault for one op class:
// all of them up to cap, else an even spread that always includes 1 and
// the last occurrence.
func sweepPoints(count int64, cap int) []int64 {
	if count <= 0 {
		return nil
	}
	if int(count) <= cap {
		out := make([]int64, count)
		for i := range out {
			out[i] = int64(i + 1)
		}
		return out
	}
	out := make([]int64, 0, cap)
	stride := count / int64(cap)
	for n := int64(1); n <= count; n += stride {
		out = append(out, n)
	}
	if out[len(out)-1] != count {
		out = append(out, count)
	}
	return out
}

// recordOps runs fn once over a counting FaultFS and returns the per-op
// totals the sweep then iterates.
func recordOps(fn func(ffs *iofault.FaultFS)) map[iofault.Op]int64 {
	ffs := iofault.NewFaultFS(nil)
	fn(ffs)
	return ffs.Counts()
}

// TestFaultSweepBuild: a fault at any point of the spill build must not
// change a single count — the build falls back to the in-memory kernel
// (recorded in ScanStats.SpillFallbacks) rather than propagate disk
// trouble into answers.
func TestFaultSweepBuild(t *testing.T) {
	o := newSweepOracle(t)
	counts := recordOps(func(ffs *iofault.FaultFS) {
		l := o.buildSpilled(t, t.TempDir(), ffs)
		if !l.PC().Spilled() {
			t.Fatal("clean build did not spill; sweep shape needs adjusting")
		}
		l.ReleaseSpill()
	})
	for _, op := range iofault.Ops() {
		for _, n := range sweepPoints(counts[op], 12) {
			ffs := iofault.NewFaultFS(nil)
			ffs.FailAt(op, n, nil)
			var st core.ScanStats
			l := must(core.BuildLabel(o.d, lattice.FullSet(4), core.CountOptions{
				MemBudget: 16 << 10, SpillDir: t.TempDir(), FS: ffs, Stats: &st,
			}))
			trial := "build/" + op.String()
			if got := o.check(t, trial, l); got != len(o.probes) {
				t.Fatalf("%s@%d: only %d/%d probes answered after build", trial, n, got, len(o.probes))
			}
			if !l.PC().Spilled() && st.SpillFallbacks == 0 {
				t.Fatalf("%s@%d: build abandoned the spill without recording a fallback", trial, n)
			}
			l.ReleaseSpill()
		}
	}
}

// TestFaultSweepSave: a fault at any point of SaveFS must either surface
// as a SaveFS error (and the half-written directory must not open as a
// quietly wrong artifact) or leave a complete artifact that answers
// bit-identically.
func TestFaultSweepSave(t *testing.T) {
	o := newSweepOracle(t)
	counts := recordOps(func(ffs *iofault.FaultFS) {
		l := o.buildSpilled(t, t.TempDir(), nil)
		defer l.ReleaseSpill()
		if err := SaveFS(l, filepath.Join(t.TempDir(), "a"), ffs); err != nil {
			t.Fatalf("clean save failed: %v", err)
		}
	})
	for _, op := range iofault.Ops() {
		for _, n := range sweepPoints(counts[op], 10) {
			trial := "save/" + op.String()
			l := o.buildSpilled(t, t.TempDir(), nil)
			ffs := iofault.NewFaultFS(nil)
			ffs.FailAt(op, n, nil)
			dir := filepath.Join(t.TempDir(), "a")
			saveErr := SaveFS(l, dir, ffs)
			l.ReleaseSpill()
			rl, _, openErr := OpenFS(dir, nil)
			if saveErr == nil && openErr != nil {
				t.Fatalf("%s@%d: Save succeeded but Open failed: %v", trial, n, openErr)
			}
			if openErr != nil {
				continue // clean failure: no artifact came into being
			}
			if got := o.check(t, trial, rl); saveErr == nil && got != len(o.probes) {
				t.Fatalf("%s@%d: saved artifact answered only %d/%d probes", trial, n, got, len(o.probes))
			}
			rl.ReleaseSpill()
		}
	}
}

// TestFaultSweepSaveKill is the crash-consistency half of the save sweep:
// the process dies at each operation. The manifest rename is the commit
// point — a directory with a manifest must open and answer exactly; one
// without must fail with ErrIncomplete, never a partial artifact served
// as whole.
func TestFaultSweepSaveKill(t *testing.T) {
	o := newSweepOracle(t)
	counts := recordOps(func(ffs *iofault.FaultFS) {
		l := o.buildSpilled(t, t.TempDir(), nil)
		defer l.ReleaseSpill()
		if err := SaveFS(l, filepath.Join(t.TempDir(), "a"), ffs); err != nil {
			t.Fatalf("clean save failed: %v", err)
		}
	})
	for _, op := range iofault.Ops() {
		for _, n := range sweepPoints(counts[op], 8) {
			trial := "kill/" + op.String()
			l := o.buildSpilled(t, t.TempDir(), nil)
			ffs := iofault.NewFaultFS(nil)
			ffs.KillAt(op, n)
			dir := filepath.Join(t.TempDir(), "a")
			saveErr := SaveFS(l, dir, ffs)
			l.ReleaseSpill()
			if saveErr == nil && ffs.Killed() {
				t.Fatalf("%s@%d: Save swallowed the crash", trial, n)
			}
			// Post-crash state is inspected through the real filesystem,
			// exactly as a restarted process would.
			_, statErr := os.Stat(filepath.Join(dir, manifestName))
			rl, _, openErr := OpenFS(dir, nil)
			if statErr == nil {
				if openErr != nil {
					t.Fatalf("%s@%d: manifest committed but Open failed: %v", trial, n, openErr)
				}
				if got := o.check(t, trial, rl); got != len(o.probes) {
					t.Fatalf("%s@%d: committed artifact answered %d/%d probes", trial, n, got, len(o.probes))
				}
				rl.ReleaseSpill()
			} else {
				if openErr == nil {
					t.Fatalf("%s@%d: no manifest yet Open succeeded", trial, n)
				}
				if !errors.Is(openErr, ErrIncomplete) {
					t.Fatalf("%s@%d: uncommitted dir: got %v, want ErrIncomplete", trial, n, openErr)
				}
			}
		}
	}
}

// TestFaultSweepOpen: a fault at any point of OpenFS must either fail the
// open cleanly or hand back a label that answers bit-identically.
func TestFaultSweepOpen(t *testing.T) {
	o := newSweepOracle(t)
	dir := filepath.Join(t.TempDir(), "a")
	l := o.buildSpilled(t, t.TempDir(), nil)
	if err := SaveFS(l, dir, nil); err != nil {
		t.Fatal(err)
	}
	l.ReleaseSpill()
	counts := recordOps(func(ffs *iofault.FaultFS) {
		rl, _, err := OpenFS(dir, ffs)
		if err != nil {
			t.Fatalf("clean open failed: %v", err)
		}
		o.check(t, "open/record", rl)
		rl.ReleaseSpill()
	})
	for _, op := range iofault.Ops() {
		for _, n := range sweepPoints(counts[op], 16) {
			trial := "open/" + op.String()
			ffs := iofault.NewFaultFS(nil)
			ffs.FailAt(op, n, nil)
			rl, _, err := OpenFS(dir, ffs)
			if err != nil {
				continue // clean refusal
			}
			o.check(t, trial, rl) // single-shot fault: reads that hit it fail cleanly or retry
			rl.ReleaseSpill()
		}
	}
}

// TestFaultSweepCorruption flips bytes across every artifact file and
// asserts the checksums hold the line: each flip is either caught at OpenFS
// (typed corruption error), caught at query time (clean error from the
// lazy run CRC), or — only for flips outside any checksummed region, which
// the format does not have — answered identically. Wrong answers fail the
// sweep.
func TestFaultSweepCorruption(t *testing.T) {
	o := newSweepOracle(t)
	srcDir := filepath.Join(t.TempDir(), "a")
	l := o.buildSpilled(t, t.TempDir(), nil)
	if err := SaveFS(l, srcDir, nil); err != nil {
		t.Fatal(err)
	}
	l.ReleaseSpill()
	var files []string // artifact-relative paths, including spill runs in subdirs
	err := filepath.WalkDir(srcDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(srcDir, path)
		if err != nil {
			return err
		}
		files = append(files, rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range files {
		data, err := os.ReadFile(filepath.Join(srcDir, victim))
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0, 0.25, 0.5, 0.75} {
			off := int(float64(len(data)-1) * frac)
			trial := "corrupt/" + victim
			// Fresh copy of the artifact with one byte flipped.
			dir := filepath.Join(t.TempDir(), "c")
			for _, rel := range files {
				b, err := os.ReadFile(filepath.Join(srcDir, rel))
				if err != nil {
					t.Fatal(err)
				}
				if rel == victim {
					b[off] ^= 0xFF
				}
				dst := filepath.Join(dir, rel)
				if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(dst, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			rl, _, openErr := OpenFS(dir, nil)
			if openErr != nil {
				continue // caught at open — the expected fate for manifest and payload flips
			}
			o.check(t, trial, rl) // run flips surface lazily; check forbids wrong answers
			rl.ReleaseSpill()
		}
	}
}
