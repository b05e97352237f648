package main

// Command-level tests: degenerate inputs must fail with a clear error (not
// a stats line full of zeros), and the save → load → serve pipeline must
// answer queries identical to counting the CSV directly.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"pcbl"
)

// writeCSV writes a small deterministic dataset: 3 attributes whose values
// cycle at different periods, so every pair combination has a nonzero,
// non-uniform count.
func writeCSV(t *testing.T, rows int) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("color,shape,size\n")
	for r := 0; r < rows; r++ {
		fmt.Fprintf(&sb, "c%d,s%d,z%d\n", r%3, (r/2)%4, (r/5)%2)
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLabelRejectsZeroRowDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(path, []byte("a,b,c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runLabel([]string{"-in", path})
	if err == nil || !strings.Contains(err.Error(), "no rows") {
		t.Fatalf("runLabel on a zero-row dataset: %v, want a no-rows error", err)
	}
	if err := runSave([]string{"-in", path, "-attrs", "a,b", "-artifact", t.TempDir() + "/a"}); err == nil ||
		!strings.Contains(err.Error(), "no rows") {
		t.Fatalf("runSave on a zero-row dataset: %v, want a no-rows error", err)
	}
}

func TestRejectsDuplicateHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.csv")
	if err := os.WriteFile(path, []byte("a,a\nx,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// main exits 1 on the returned error.
	for name, run := range map[string]func([]string) error{"inspect": runInspect, "label": runLabel} {
		if err := run([]string{"-in", path}); err == nil || !strings.Contains(err.Error(), `duplicate attribute name "a"`) {
			t.Errorf("%s on a repeated header name: %v, want an error naming it", name, err)
		}
	}
}

func TestSaveRejectsUnknownAttribute(t *testing.T) {
	path := writeCSV(t, 60)
	err := runSave([]string{"-in", path, "-bins", "0", "-attrs", "color,nosuch", "-artifact", t.TempDir() + "/a"})
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("runSave with an unknown attribute: %v, want an error naming it", err)
	}
}

func TestSaveRequiresExactlyOneMode(t *testing.T) {
	path := writeCSV(t, 60)
	for _, args := range [][]string{
		{"-in", path, "-artifact", t.TempDir() + "/a"},                                    // neither
		{"-in", path, "-attrs", "color", "-bound", "10", "-artifact", t.TempDir() + "/b"}, // both
		{"-in", path, "-attrs", "color"},                                                  // no -artifact
	} {
		if err := runSave(args); err == nil {
			t.Errorf("runSave(%v) succeeded, want usage error", args)
		}
	}
}

func TestSaveLoadServeRoundTrip(t *testing.T) {
	path := writeCSV(t, 120)
	dir := filepath.Join(t.TempDir(), "artifact")
	if err := runSave([]string{"-in", path, "-bins", "0", "-attrs", "color,shape", "-artifact", dir}); err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "load")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = runLoad([]string{"-artifact", dir})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if want := "payloads:         1 (1 sorted); format version 4"; !strings.Contains(string(printed), want) {
		t.Fatalf("load printed:\n%s\nwant a line %q", printed, want)
	}

	// Ground truth straight from the CSV.
	d, err := pcbl.ReadCSVFile(path, pcbl.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pcbl.NewPattern(d, map[string]string{"color": "c1", "shape": "s2"})
	if err != nil {
		t.Fatal(err)
	}
	want := pcbl.Count(d, p)
	if want == 0 {
		t.Fatal("probe pattern has zero count; choose another")
	}

	ready := make(chan string, 1)
	serveReady = func(addr string) { ready <- addr }
	defer func() { serveReady = nil }()
	served := make(chan error, 1)
	go func() { served <- runServe([]string{"-artifact", dir, "-addr", "127.0.0.1:0"}) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-served:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not start listening")
	}

	resp, err := http.Get("http://" + addr + "/v1/count?q=color%3Dc1%2Cshape%3Ds2")
	if err != nil {
		t.Fatal(err)
	}
	var cr struct {
		Count int `json:"count"`
	}
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Count != want {
		t.Fatalf("served count %d, want %d (CSV ground truth)", cr.Count, want)
	}

	// SIGINT must shut the daemon down cleanly.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down on SIGINT")
	}
}

// TestLabelPrintsExactError: `pcbl label` reports the chosen label's
// exhaustive error over P_A — |P_A| patterns, no more than the rows — and
// not the search's running counters or its early-stopped estimate.
func TestLabelPrintsExactError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cc.csv")
	if _, err := captureStdout(t, func() error {
		return runGen([]string{"-name", "creditcard", "-rows", "3000", "-seed", "1", "-out", path})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return runLabel([]string{"-in", path, "-bound", "100"}) })
	if err != nil {
		t.Fatal(err)
	}
	var maxErr string
	var patterns int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "max abs error:") {
			if _, err := fmt.Sscanf(line, "max abs error: %s over %d distinct patterns", &maxErr, &patterns); err != nil {
				t.Fatalf("unparsable line %q: %v", line, err)
			}
		}
	}
	d, err := readDataset(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	ps := pcbl.DistinctTuples(d)
	res, err := pcbl.GenerateLabel(d, pcbl.GenerateOptions{Bound: 100, Patterns: ps, FastEval: true})
	if err != nil {
		t.Fatal(err)
	}
	eval := pcbl.Evaluate(res.Label, ps)
	if patterns != ps.Len() || patterns > d.NumRows() {
		t.Fatalf("printed %d distinct patterns; |P_A| = %d over %d rows", patterns, ps.Len(), d.NumRows())
	}
	if want := fmt.Sprintf("%.1f", eval.MaxAbs); maxErr != want {
		t.Fatalf("printed max abs error %s, Evaluate says %s", maxErr, want)
	}
}

// TestLabelPrintsSearchCounts: the search line of `pcbl label` reports
// the search's own counters — sets examined and proved by bound, sets in
// bound, candidates scored and labels built — as the library returns them
// for the same input.
func TestLabelPrintsSearchCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compas.csv")
	if _, err := captureStdout(t, func() error {
		return runGen([]string{"-name", "compas", "-rows", "3000", "-seed", "1", "-out", path})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return runLabel([]string{"-in", path, "-bound", "100"}) })
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`search: +(\d+) sets examined \((\d+) proved by bound\), (\d+) in bound, (\d+) candidates? scored, (\d+) labels? built, \S+ total`)
	m := line.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no search line in:\n%s", out)
	}
	var got [5]int
	for i := range got {
		got[i], _ = strconv.Atoi(m[i+1])
	}
	d, err := readDataset(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pcbl.GenerateLabel(d, pcbl.GenerateOptions{Bound: 100, Patterns: pcbl.DistinctTuples(d), FastEval: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if want := [5]int{st.SizeComputed, st.Proved, st.InBound, st.Evaluated, st.LabelsBuilt}; got != want {
		t.Fatalf("printed examined, proved, in bound, scored, built = %v; the search reports %v", got, want)
	}
	if got[1] == 0 || got[4] >= got[3] {
		t.Fatalf("printed %d proved and %d labels built for %d candidates: want proofs, and fewer labels than candidates", got[1], got[4], got[3])
	}
}
