package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// rule is how compare judges one metric.
type rule struct {
	lowerBetter bool
	bound       float64 // share of A's median B may lose; <0 for none
	exact       bool
}

func readRules(path string) (map[string]rule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rules := make(map[string]rule)
	for _, m := range bf.EndToEnd {
		rules[m.Name] = rule{lowerBetter: m.Better == "lower", bound: m.Bound}
	}
	for _, m := range bf.PerLayer {
		spec, _ := specOf(m.Name)
		rules[m.Name] = rule{lowerBetter: m.Better == "lower", bound: -1, exact: spec.exact}
	}
	return rules, nil
}

// loadResults reads every result file of dir, keyed by workload and trace.
func loadResults(dir string) (map[string][]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result-*.json files in %s", dir)
	}
	out := make(map[string][]resultFile)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[rf.Workload] = append(out[rf.Workload], rf)
	}
	return out, nil
}

// comparison is one (workload, metric) row of compare's report.
type comparison struct {
	workload, metric, unit string
	a, b                   []float64
	win                    float64 // share of pairs B wins; ties count for neither
	pairs                  int
	verdict                string
}

func cmdCompare(args []string, w io.Writer) error {
	fset := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fset.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if fset.NArg() != 2 {
		return fmt.Errorf("compare needs two result directories, A (baseline) and B")
	}
	rules, err := readRules(*bench)
	if err != nil {
		return err
	}
	a, err := loadResults(fset.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadResults(fset.Arg(1))
	if err != nil {
		return err
	}
	rows := compareResults(a, b, rules)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB wins\tverdict")
	regressed := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.0f%% of %d\t%s\n", r.workload, r.metric, r.unit,
			describe(r.a), describe(r.b), 100*r.win, r.pairs, r.verdict)
		if r.verdict == "regressed" {
			regressed++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", median(xs), q1, q3, len(xs))
}

// compareResults pairs the runs of A and B per workload — by seed where
// both sides ran the same seeds, else in seed order — and judges every
// metric both sides report.
func compareResults(a, b map[string][]resultFile, rules map[string]rule) []comparison {
	var rows []comparison
	var names []string
	for wl := range a {
		if _, ok := b[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, traced := range []bool{false, true} {
			ra, rb := runsOf(a[wl], traced), runsOf(b[wl], traced)
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			var metrics []string
			for m := range ra[0].Metrics {
				if _, ok := rb[0].Metrics[m]; ok {
					metrics = append(metrics, m)
				}
			}
			sort.Strings(metrics)
			for _, m := range metrics {
				row := comparison{workload: wl, metric: m, unit: ra[0].Metrics[m].Unit}
				var pairs [][2]float64
				for i, x := range ra {
					row.a = append(row.a, x.Metrics[m].Value)
					if j := partner(ra, rb, i); j >= 0 {
						pairs = append(pairs, [2]float64{x.Metrics[m].Value, rb[j].Metrics[m].Value})
					}
				}
				for _, y := range rb {
					row.b = append(row.b, y.Metrics[m].Value)
				}
				r, ok := rules[m]
				if !ok {
					r = rule{lowerBetter: true, bound: -1}
				}
				row.verdict, row.win = judgeMetric(row.a, row.b, pairs, r)
				row.pairs = len(pairs)
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func runsOf(runs []resultFile, traced bool) []resultFile {
	var out []resultFile
	for _, r := range runs {
		if r.Trace == traced {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

// partner returns the index in rb of ra[i]'s pair: the run with the same
// seed, or when B ran none of A's seeds, the run at the same position.
func partner(ra, rb []resultFile, i int) int {
	shared := false
	for _, x := range ra {
		for j, y := range rb {
			if x.Seed == y.Seed {
				shared = true
				if x.Seed == ra[i].Seed {
					return j
				}
			}
		}
	}
	if !shared && i < len(rb) {
		return i
	}
	return -1
}

// judgeMetric gives a verdict on B against A (choosing-metrics §6.5 and
// §8) and the share of pairs B wins:
//
//   - a count (exact) is unchanged when every pair is equal, and improved
//     or regressed by the direction of the medians otherwise;
//   - improved: at least ten pairs, B wins nine tenths of them or more,
//     and the medians differ by more than A's spread (q3 − q1);
//   - a metric without a bound gets no other verdict ("-");
//   - unresolved: either side's relative spread exceeds the bound, unless
//     every run of B is better than every run of A;
//   - regressed: B's median is worse than A's by more than the bound;
//   - unchanged otherwise.
func judgeMetric(a, b []float64, pairs [][2]float64, r rule) (string, float64) {
	better := func(x, y float64) bool { // x better than y
		if r.lowerBetter {
			return x < y
		}
		return x > y
	}
	wins := 0
	for _, p := range pairs {
		if better(p[1], p[0]) {
			wins++
		}
	}
	win := frac(float64(wins), float64(len(pairs)))
	medA, medB := median(a), median(b)
	if r.exact {
		for _, p := range pairs {
			if p[0] != p[1] {
				if better(medB, medA) {
					return "improved", win
				}
				return "regressed", win
			}
		}
		return "unchanged", win
	}
	q1A, q3A := quartiles(a)
	q1B, q3B := quartiles(b)
	if len(pairs) >= 10 && win >= 0.9 && better(medB, medA) && math.Abs(medB-medA) > q3A-q1A {
		return "improved", win
	}
	if r.bound < 0 {
		return "-", win
	}
	spread := math.Max(relative(q3A-q1A, medA), relative(q3B-q1B, medB))
	if spread > r.bound && !allBetter(b, a, better) {
		return "unresolved", win
	}
	worse := relative(medB-medA, medA)
	if !r.lowerBetter {
		worse = -worse
	}
	if worse > r.bound {
		return "regressed", win
	}
	return "unchanged", win
}

// relative is d as a share of base, infinite when base is 0 and d is not.
func relative(d, base float64) float64 {
	if base == 0 {
		if d == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(base)
}

func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}
