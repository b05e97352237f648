package main

// `pcbl estimate` and `pcbl audit` answer from a saved artifact alone: the
// printed estimates must be the in-process label's Est(p, l), and a
// pattern the artifact cannot resolve is an error, never an estimate.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcbl"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed along with fn's error.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	ferr := fn()
	os.Stdout = stdout
	w.Close()
	s := <-out
	r.Close()
	return s, ferr
}

// savedArtifact writes a NULL-free CSV of rows rows, saves its label over
// color and shape with `pcbl save`, and returns the artifact directory and
// the same label built in process.
func savedArtifact(t *testing.T, rows int) (string, *pcbl.Label) {
	t.Helper()
	path := writeCSV(t, rows)
	dir := filepath.Join(t.TempDir(), "artifact")
	if _, err := captureStdout(t, func() error {
		return runSave([]string{"-in", path, "-bins", "0", "-attrs", "color,shape", "-artifact", dir})
	}); err != nil {
		t.Fatal(err)
	}
	d, err := pcbl.ReadCSVFile(path, pcbl.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := pcbl.BuildLabel(d, "color", "shape")
	if err != nil {
		t.Fatal(err)
	}
	return dir, l
}

func TestEstimateFromArtifact(t *testing.T) {
	dir, l := savedArtifact(t, 600)
	for _, expr := range []string{
		"color=c1,shape=s2",         // the full label set
		"color=c0",                  // part of it
		"size=z1",                   // only outside it
		"color=c2,shape=s3,size=z0", // both
		"shape=s1,size=z1",
	} {
		p, err := pcbl.ParsePattern(l.Dataset(), expr)
		if err != nil {
			t.Fatal(err)
		}
		est, err := l.EstimateCtx(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("estimated count: %.1f of %d total rows (%.3f%%)\n", est, l.Rows(), 100*est/float64(l.Rows()))
		got, err := captureStdout(t, func() error { return runEstimate([]string{"-artifact", dir, "-pattern", expr}) })
		if err != nil {
			t.Fatalf("estimate %q: %v", expr, err)
		}
		if got != want {
			t.Errorf("estimate %q printed %q, want %q", expr, got, want)
		}
	}

	for _, expr := range []string{"ghost=c1", "color=c9"} {
		out, err := captureStdout(t, func() error { return runEstimate([]string{"-artifact", dir, "-pattern", expr}) })
		if err == nil {
			t.Errorf("estimate %q: printed %q, want an error", expr, out)
		}
	}
}

func TestAuditFromArtifact(t *testing.T) {
	dir, l := savedArtifact(t, 2000)
	out, err := captureStdout(t, func() error { return runAudit([]string{"-artifact", dir, "-attrs", "color,size"}) })
	if err != nil {
		t.Fatal(err)
	}
	// The default threshold is 0.5% of the label's rows: 10 of 2000.
	if header := "auditing color × size over 2000 rows (threshold 10)"; !strings.HasPrefix(out, header) {
		t.Fatalf("audit printed %q, want it to start with %q", out, header)
	}

	// Under a threshold no estimate reaches, every combination is flagged
	// with the in-process label's estimate.
	out, err = captureStdout(t, func() error {
		return runAudit([]string{"-artifact", dir, "-attrs", "color,size", "-threshold", "1e9"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, color := range []string{"c0", "c1", "c2"} {
		for _, size := range []string{"z0", "z1"} {
			p, err := pcbl.NewPattern(l.Dataset(), map[string]string{"color": color, "size": size})
			if err != nil {
				t.Fatal(err)
			}
			est, err := l.EstimateCtx(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			if line := fmt.Sprintf("⚠ %8.0f  color = %s AND size = %s\n", est, color, size); !strings.Contains(out, line) {
				t.Errorf("audit output lacks %q:\n%s", line, out)
			}
		}
	}

	if _, err := captureStdout(t, func() error { return runAudit([]string{"-artifact", dir, "-attrs", "color,ghost"}) }); err == nil {
		t.Error("audit over an unknown attribute succeeded")
	}
}
