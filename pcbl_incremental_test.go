package pcbl

// Facade-level tests for the incremental maintenance API and the unified
// EngineOptions: the CSV-append → delta label → merge flow must equal a
// full rebuild, typed artifact errors must surface through the facade, and
// the deprecated per-call option fields must keep working with Engine
// winning on conflict.

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"pcbl/internal/datagen"
	"pcbl/internal/iofault"
	"pcbl/internal/testutil"
)

// splitCSV renders d to CSV and returns the full text plus a truncation
// holding the header and the first baseRows data rows.
func splitCSV(t *testing.T, d *Dataset, baseRows int) (full, base string) {
	t.Helper()
	var sb strings.Builder
	if err := WriteCSV(&sb, d); err != nil {
		t.Fatal(err)
	}
	full = sb.String()
	lines := strings.SplitAfter(full, "\n")
	return full, strings.Join(lines[:baseRows+1], "")
}

func TestFacadeIncrementalUpdate(t *testing.T) {
	d := testutil.Fig2()
	attrs := []string{"gender", "age group", "marital status"}
	fullCSV, baseCSV := splitCSV(t, d, 12)

	base, err := ReadCSV(strings.NewReader(baseCSV), CSVOptions{Name: "base"})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := BuildLabel(base, attrs...)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "artifact")
	if err := SaveLabelArtifact(bl, dir); err != nil {
		t.Fatal(err)
	}
	rl, m, err := OpenLabelArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 || m.TotalRows != 12 {
		t.Fatalf("base manifest: epoch %d rows %d", m.Epoch, m.TotalRows)
	}

	// The update flow, exactly as `pcbl update` runs it: parse only the
	// appended suffix against the artifact's schema, count it, merge.
	delta, err := ReadCSVAppend(strings.NewReader(fullCSV), rl.Dataset(), CSVOptions{SkipRows: m.TotalRows})
	if err != nil {
		t.Fatal(err)
	}
	if delta.NumRows() != d.NumRows()-12 {
		t.Fatalf("delta rows = %d, want %d", delta.NumRows(), d.NumRows()-12)
	}
	dl, err := BuildDeltaLabel(delta, EngineOptions{Workers: 1}, attrs...)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := MergeLabelArtifact(dir, dl, m)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Epoch != 2 || nm.TotalRows != d.NumRows() {
		t.Fatalf("merged manifest: epoch %d rows %d", nm.Epoch, nm.TotalRows)
	}

	// The merged artifact equals a full rebuild: same size, same count for
	// a full label-set pattern.
	want, err := BuildLabel(d, attrs...)
	if err != nil {
		t.Fatal(err)
	}
	ml, _, err := OpenLabelArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ml.Size() != want.Size() {
		t.Fatalf("merged size %d, rebuild %d", ml.Size(), want.Size())
	}
	assign := map[string]string{"gender": "Female", "age group": "20-39", "marital status": "married"}
	wp, err := NewPattern(d, assign)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := NewPattern(ml.Dataset(), assign)
	if err != nil {
		t.Fatal(err)
	}
	wc, _ := must2(want.CountCtx(nil, wp))
	mc, _ := must2(ml.CountCtx(nil, mp))
	if wc != mc {
		t.Fatalf("merged count %d, rebuild %d", mc, wc)
	}

	// Replaying the merge against the superseded manifest hits the typed
	// epoch error, re-exported on the facade.
	dl2, err := BuildDeltaLabel(delta, EngineOptions{}, attrs...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeLabelArtifact(dir, dl2, m); !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("stale merge: got %v, want ErrEpochMismatch", err)
	}

	// The delta-artifact route: save the delta bound to the current
	// generation, then merge the directories.
	dl3, err := BuildDeltaLabel(delta, EngineOptions{}, attrs...)
	if err != nil {
		t.Fatal(err)
	}
	deltaDir := filepath.Join(t.TempDir(), "delta")
	if err := SaveDeltaArtifact(dl3, deltaDir, nm); err != nil {
		t.Fatal(err)
	}
	nm2, err := MergeDeltaArtifact(dir, deltaDir)
	if err != nil {
		t.Fatal(err)
	}
	if nm2.Epoch != 3 {
		t.Fatalf("second merge epoch = %d, want 3", nm2.Epoch)
	}
}

func TestFacadeArtifactErrors(t *testing.T) {
	// Opening a directory with no manifest surfaces the typed
	// incompleteness error through the facade alias.
	if _, _, err := OpenLabelArtifact(t.TempDir()); !errors.Is(err, ErrArtifactIncomplete) {
		t.Fatalf("empty dir: got %v, want ErrArtifactIncomplete", err)
	}
	if ErrArtifactCorrupt == nil || ErrArtifactManifest == nil {
		t.Fatal("typed artifact errors must be non-nil")
	}
}

// TestEngineOptionsCompat pins the facade-to-engine lowering:
// countOptions carries every engine field through to the core.
func TestEngineOptionsCompat(t *testing.T) {
	fs := iofault.NewFaultFS(nil)
	co := EngineOptions{Workers: 7, MemBudget: 11, SpillDir: "s", FS: fs}.countOptions()
	if co.Workers != 7 || co.MemBudget != 11 || co.SpillDir != "s" || co.FS != fs {
		t.Fatalf("countOptions dropped a field: %+v", co)
	}
}

// TestRenderMatchesRebuild: a label reopened from its artifact, or grown
// by a merge, renders — as text and as HTML — byte-identically to a label
// rebuilt in process over the same rows. Both renderers read |D| from
// Label.Rows: the attached dataset holds no rows after a reopen and only
// the delta's rows after a merge.
func TestRenderMatchesRebuild(t *testing.T) {
	src, err := datagen.BlueNile(6000, 5)
	if err != nil {
		t.Fatal(err)
	}
	fullCSV, baseCSV := splitCSV(t, src, 5000)
	opts := CSVOptions{Name: "bluenile"}
	full := must(ReadCSV(strings.NewReader(fullCSV), opts))
	base := must(ReadCSV(strings.NewReader(baseCSV), opts))
	attrs := []string{"cut", "polish", "symmetry"}

	dir := filepath.Join(t.TempDir(), "artifact")
	if err := SaveLabelArtifact(must(BuildLabel(base, attrs...)), dir); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := OpenLabelArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}

	merged := must(BuildLabel(base, attrs...))
	opts.SkipRows = base.NumRows()
	delta := must(ReadCSVAppend(strings.NewReader(fullCSV), base, opts))
	if _, _, err := merged.Merge(must(BuildLabel(delta, attrs...)), -1); err != nil {
		t.Fatal(err)
	}

	html := func(l *Label) string {
		var b bytes.Buffer
		if err := WriteHTMLReport(&b, l, nil); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, c := range []struct {
		name      string
		got, want *Label
	}{
		{"reopened", reopened, must(BuildLabel(base, attrs...))},
		{"merged", merged, must(BuildLabel(full, attrs...))},
	} {
		if got, want := must(RenderLabel(c.got, nil)), must(RenderLabel(c.want, nil)); got != want {
			t.Errorf("%s: RenderLabel differs from the rebuild:\n%s\nwant:\n%s", c.name, got, want)
		}
		if html(c.got) != html(c.want) {
			t.Errorf("%s: WriteHTMLReport differs from the rebuild", c.name)
		}
	}
}
