package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
)

// tinyRun runs one workload at a tiny scale in process.
func tinyRun(t *testing.T, w *workload, trace bool, wrap func(http.Handler) http.Handler) *result {
	t.Helper()
	dir := t.TempDir()
	res, err := runWorkload(w, runConfig{
		seed: 7, seconds: 0.3, trace: trace, scale: 0.02, rounds: 2, setups: 1,
		dir: filepath.Join(dir, "work"), out: dir, log: io.Discard, wrap: wrap,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if trace {
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	return res
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readDeclared reads BENCHMARK.json's metrics and checks that it declares
// the workloads this command runs.
func readDeclared(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	return bf.EndToEnd, bf.PerLayer
}

// TestSmokeEveryWorkload runs every workload untraced and traced at a tiny
// scale: every answer checks out, and the printed result names exactly
// the metrics BENCHMARK.json declares, each with its unit. The traced runs
// overlap, and each switches GOMAXPROCS and the collector while it counts
// allocations; both must be restored after them.
func TestSmokeEveryWorkload(t *testing.T) {
	e2e, layers := readDeclared(t)
	procs, gc := runtime.GOMAXPROCS(0), gcPercent()
	t.Run("runs", func(t *testing.T) {
		for _, w := range workloads {
			for _, trace := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
					t.Parallel()
					smoke(t, w, trace, e2e, layers)
				})
			}
		}
	})
	if p, g := runtime.GOMAXPROCS(0), gcPercent(); p != procs || g != gc {
		t.Errorf("after the runs GOMAXPROCS is %d and the GC percent %d, want %d and %d", p, g, procs, gc)
	}
}

func gcPercent() int {
	p := debug.SetGCPercent(100)
	debug.SetGCPercent(p)
	return p
}

// smoke runs one workload at a tiny scale and checks its printed result.
func smoke(t *testing.T, w *workload, trace bool, e2e, layers []declared) {
	res := tinyRun(t, w, trace, nil)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var printed result
	if err := json.Unmarshal(line, &printed); err != nil {
		t.Fatal(err)
	}
	want := e2e
	if trace {
		want = layers
	}
	for _, d := range want {
		got, ok := printed.Metrics[d.Name]
		if !ok || got.Unit != d.Unit {
			t.Errorf("metric %s printed as %+v (present %v), want unit %s", d.Name, got, ok, d.Unit)
		}
	}
	if len(printed.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(printed.Metrics), len(want))
	}
}

// perturbFirstCount adds one to the first successful /v1/count answer.
func perturbFirstCount(h http.Handler) http.Handler {
	var done atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/count" || done.Load() {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var res countResult
		if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &res) == nil && done.CompareAndSwap(false, true) {
			res.Count++
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(res)
			return
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
}

// TestWrongCountFailsTheRun serves one wrong count: the run reports it as
// incorrect, counts it in error_frac, and the command exits non-zero.
func TestWrongCountFailsTheRun(t *testing.T) {
	w, err := findWorkload("bluenile-paper")
	if err != nil {
		t.Fatal(err)
	}
	res := tinyRun(t, w, true, perturbFirstCount)
	if res.Correct || res.Failed != 1 {
		t.Errorf("correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
	if v := res.Metrics["check.error_frac"].Value; v <= 0 {
		t.Errorf("check.error_frac = %v, want > 0", v)
	}
	f := &runFlags{workload: w.name, seed: 7, seconds: 0.3, trace: 1, out: t.TempDir()}
	if err := report(w, f, res, io.Discard, io.Discard); !errors.Is(err, errWrong) {
		t.Errorf("report returned %v, want errWrong (a non-zero exit)", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(xs, n=4)[0] and [2]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudgeMetric(t *testing.T) {
	around := func(m float64, spread float64) []float64 {
		var xs []float64
		for i := 0; i < 10; i++ {
			xs = append(xs, m+spread*float64(i-5)/5)
		}
		return xs
	}
	pair := func(a, b []float64) [][2]float64 {
		var ps [][2]float64
		for i := range a {
			ps = append(ps, [2]float64{a[i], b[i]})
		}
		return ps
	}
	lower := rule{lowerBetter: true, bound: 0.1}
	for _, c := range []struct {
		name    string
		a, b    []float64
		r       rule
		verdict string
		win     float64
	}{
		{"faster", around(100, 1), around(80, 1), lower, "improved", 1},
		{"same", around(100, 1), around(101, 1), lower, "unchanged", 0},
		{"slower", around(100, 1), around(125, 1), lower, "regressed", 0},
		{"too noisy to tell", around(100, 30), around(105, 30), lower, "unresolved", 0},
		{"higher is better", around(100, 1), around(80, 1), rule{bound: 0.1}, "regressed", 0},
		{"equal counts", around(7, 0), around(7, 0), rule{lowerBetter: true, bound: -1, exact: true}, "unchanged", 0},
		{"one count more", around(7, 0), append(around(7, 0)[:9], 8), rule{lowerBetter: true, bound: -1, exact: true}, "regressed", 0},
		{"no bound, faster", around(100, 1), around(50, 1), rule{lowerBetter: true, bound: -1}, "improved", 1},
		{"no bound, slower", around(100, 1), around(150, 1), rule{lowerBetter: true, bound: -1}, "-", 0},
	} {
		verdict, win := judgeMetric(c.a, c.b, pair(c.a, c.b), c.r)
		if verdict != c.verdict || win != c.win {
			t.Errorf("%s: verdict %q win %v, want %q win %v", c.name, verdict, win, c.verdict, c.win)
		}
	}
}

// TestCompareDirectories runs compare on two synthetic result directories.
func TestCompareDirectories(t *testing.T) {
	write := func(dir string, seed uint64, setupS float64) {
		rf := resultFile{Workload: "bluenile-paper", Seed: seed, result: result{
			Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"setup_s": {Value: setupS, Unit: "s"}},
		}}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, fmt.Sprintf("result-bluenile-paper-seed%d-trace0.json", seed))
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	for seed := uint64(1); seed <= 5; seed++ {
		write(a, seed, 1+0.001*float64(seed))
		write(b, seed, 1+0.001*float64(6-seed))
		write(c, seed, 1.5+0.001*float64(seed))
	}
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	if err := cmdCompare([]string{"-bench", bench, a, b}, io.Discard); err != nil {
		t.Errorf("same code: %v", err)
	}
	if err := cmdCompare([]string{"-bench", bench, a, c}, io.Discard); err == nil {
		t.Error("a 50% slower set-up compared without a regression")
	}
}
