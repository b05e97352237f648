package pcbl

// Whole-label readers — Render and the facade's WriteHTMLReport and
// RenderLabel — stream a spilled PC section from its on-disk runs. A run read that fails must come back as an error, never a
// panic, and once the disk heals the same label must produce exactly the
// output of an in-memory build.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/iofault"
)

func TestSpilledLabelReadersSurfaceReadFault(t *testing.T) {
	// 4000 rows over 4 attributes of domain 300: nearly every row is its
	// own pattern, so the PC section models far over a 16 KiB budget and
	// stays merge-on-read.
	rng := rand.New(rand.NewPCG(0xC4, 0))
	var csv strings.Builder
	csv.WriteString("a0,a1,a2,a3\n")
	for r := 0; r < 4000; r++ {
		fmt.Fprintf(&csv, "v%d,v%d,v%d,v%d\n", rng.IntN(300), rng.IntN(300), rng.IntN(300), rng.IntN(300))
	}
	d, err := ReadCSV(strings.NewReader(csv.String()), CSVOptions{Name: "faulty"})
	if err != nil {
		t.Fatal(err)
	}
	names := d.AttrNames()
	oracle, err := BuildLabel(d, names...)
	if err != nil {
		t.Fatal(err)
	}
	ffs := iofault.NewFaultFS(nil)
	l, err := BuildLabelWith(d, LabelOptions{Engine: EngineOptions{
		Workers: 2, MemBudget: 16 << 10, SpillDir: t.TempDir(), FS: ffs,
	}}, names...)
	if err != nil {
		t.Fatal(err)
	}
	defer l.ReleaseSpill()
	if !l.PC().Spilled() {
		t.Fatal("budgeted label did not stay merge-on-read")
	}

	readers := map[string]func(*Label) (string, error){
		"Render": func(l *Label) (string, error) { return core.Render(l, core.RenderOptions{}) },
		"WriteHTMLReport": func(l *Label) (string, error) {
			var buf bytes.Buffer
			err := WriteHTMLReport(&buf, l, nil)
			return buf.String(), err
		},
		"RenderLabel": func(l *Label) (string, error) { return RenderLabel(l, nil) },
	}

	// Fail every later read: no run is cached yet, so each reader hits
	// the dead disk.
	ffs.FailFrom(iofault.OpRead, ffs.Counts()[iofault.OpRead]+1, nil)
	for name, read := range readers {
		if _, err := read(l); err == nil {
			t.Errorf("%s on a dead disk returned no error", name)
		}
	}

	// Failed loads are not cached: once the disk heals, every reader
	// matches the in-memory build.
	ffs.Reset()
	for name, read := range readers {
		got, err := read(l)
		if err != nil {
			t.Fatalf("%s after the disk healed: %v", name, err)
		}
		want, err := read(oracle)
		if err != nil {
			t.Fatalf("%s on the in-memory label: %v", name, err)
		}
		if got != want {
			t.Errorf("%s after the disk healed differs from the in-memory label", name)
		}
	}
}
