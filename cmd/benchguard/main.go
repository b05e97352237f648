// Command benchguard compares `go test -bench -benchmem` output read from
// stdin against recorded BENCH_*.json baselines and fails when a guarded
// benchmark's bytes/op regresses beyond its allowed ratio.
//
// Memory per op is stable across runners, so it gates CI; ns/op varies
// with shared-runner load and is reported as advisory only.
//
// Single-pair mode guards one benchmark against one baseline:
//
//	go test -run xxx -bench FrontierSizing -benchmem -benchtime 1x . \
//	    | go run ./cmd/benchguard -baseline BENCH_pr3.json \
//	          -bench FrontierSizing/scheduler -max-bytes-ratio 2
//
// Manifest mode gates the whole recorded bench trajectory in one step: the
// manifest lists (benchmark, baseline file, bytes-ratio) entries, every
// entry is checked against the same combined bench run, and any missing or
// regressed benchmark fails the build:
//
//	go test -run xxx -bench 'FrontierSizing|BuildPCParallel|SpillGroupBy' \
//	    -benchmem -benchtime 1x . \
//	    | go run ./cmd/benchguard -manifest bench_manifest.json
//
// An entry may name the -benchtime its baseline was recorded at; CI runs
// each benchtime group as its own `go test` call and feeds benchguard the
// concatenated output. A benchmark whose per-run setup allocates (such as
// RunParallel's) needs enough iterations for bytes/op to measure the loop
// body rather than the setup.
//
// A baseline of 0 B/op cannot be divided by: it is gated as 1 B/op, so an
// allocation-free benchmark may read up to max-bytes-ratio B/op (rounding
// and amortized setup) and fails as soon as it allocates once per op,
// which costs at least 8 bytes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

type baselineFile struct {
	ID      string `json:"id"`
	Results []struct {
		Name       string  `json:"name"`
		NsPerOp    float64 `json:"ns_per_op"`
		BytesPerOp int64   `json:"bytes_per_op"`
	} `json:"results"`
}

// manifest is the trajectory-gate description: one entry per guarded
// benchmark, each against its own recorded baseline file.
type manifest struct {
	Entries []manifestEntry `json:"entries"`
}

type manifestEntry struct {
	// Bench names the benchmark as recorded in the baseline (and as
	// printed by `go test -bench` minus the GOMAXPROCS suffix).
	Bench string `json:"bench"`
	// Baseline is the BENCH_*.json path, relative to the manifest file.
	Baseline string `json:"baseline"`
	// MaxBytesRatio fails the gate when measured bytes/op exceeds
	// baseline × ratio; 0 means 2.
	MaxBytesRatio float64 `json:"max_bytes_ratio"`
	// Benchtime is the -benchtime the baseline was recorded at and CI runs
	// the benchmark at; empty means 5x. benchguard itself only reads the
	// output it is given.
	Benchtime string `json:"benchtime,omitempty"`
}

// bytesLimit returns the largest bytes/op an entry may measure against its
// baseline: baseline × ratio, with a baseline of 0 B/op counted as 1.
func bytesLimit(baseBytes int64, ratio float64) float64 {
	return float64(max(baseBytes, 1)) * ratio
}

// benchResult is one benchmark line scanned from the `go test` output.
type benchResult struct {
	nsPerOp    float64
	bytesPerOp int64
}

func main() {
	manifestPath := flag.String("manifest", "", "path to a manifest gating multiple (bench, baseline, ratio) entries in one run")
	baselinePath := flag.String("baseline", "", "path to the recorded BENCH_*.json baseline (single-pair mode)")
	benchName := flag.String("bench", "", "benchmark to guard, as named in the baseline (single-pair mode)")
	maxBytesRatio := flag.Float64("max-bytes-ratio", 2, "fail when measured bytes/op exceeds baseline × ratio (single-pair mode)")
	flag.Parse()

	var entries []manifestEntry
	switch {
	case *manifestPath != "":
		raw, err := os.ReadFile(*manifestPath)
		if err != nil {
			fatal("%v", err)
		}
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			fatal("parsing %s: %v", *manifestPath, err)
		}
		if len(m.Entries) == 0 {
			fatal("manifest %s has no entries", *manifestPath)
		}
		dir := filepath.Dir(*manifestPath)
		for _, e := range m.Entries {
			if e.Bench == "" || e.Baseline == "" {
				fatal("manifest entry missing bench or baseline: %+v", e)
			}
			if !filepath.IsAbs(e.Baseline) {
				e.Baseline = filepath.Join(dir, e.Baseline)
			}
			if e.MaxBytesRatio == 0 {
				e.MaxBytesRatio = 2
			}
			entries = append(entries, e)
		}
	case *baselinePath != "" && *benchName != "":
		entries = []manifestEntry{{Bench: *benchName, Baseline: *baselinePath, MaxBytesRatio: *maxBytesRatio}}
	default:
		fmt.Fprintln(os.Stderr, "benchguard: either -manifest or both -baseline and -bench are required")
		os.Exit(2)
	}

	got, err := scanBench(os.Stdin)
	if err != nil {
		fatal("reading bench output: %v", err)
	}

	baselines := map[string]*baselineFile{}
	failed := 0
	for _, e := range entries {
		base := baselines[e.Baseline]
		if base == nil {
			raw, err := os.ReadFile(e.Baseline)
			if err != nil {
				fatal("%v", err)
			}
			base = &baselineFile{}
			if err := json.Unmarshal(raw, base); err != nil {
				fatal("parsing %s: %v", e.Baseline, err)
			}
			baselines[e.Baseline] = base
		}
		var baseNs float64
		var baseBytes int64
		found := false
		for _, r := range base.Results {
			if r.Name == e.Bench {
				baseNs, baseBytes, found = r.NsPerOp, r.BytesPerOp, true
				break
			}
		}
		if !found {
			fatal("%q not in baseline %s", e.Bench, base.ID)
		}
		res, ok := got[e.Bench]
		if !ok {
			fmt.Printf("FAIL %s: not found in input — did the run include it (and -benchmem)?\n", e.Bench)
			failed++
			continue
		}
		limit := bytesLimit(baseBytes, e.MaxBytesRatio)
		fmt.Printf("benchguard %s vs %s:\n", e.Bench, base.ID)
		fmt.Printf("  bytes/op %d vs baseline %d (limit %.0f = %.2fx)\n", res.bytesPerOp, baseBytes, limit, e.MaxBytesRatio)
		fmt.Printf("  ns/op %d vs baseline %d (%.2fx, advisory)\n", int64(res.nsPerOp), int64(baseNs), res.nsPerOp/baseNs)
		if float64(res.bytesPerOp) > limit {
			fmt.Printf("FAIL %s: bytes/op regressed beyond %.2fx\n", e.Bench, e.MaxBytesRatio)
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("FAIL: %d of %d guarded benchmarks regressed or were missing\n", failed, len(entries))
		os.Exit(1)
	}
	fmt.Printf("ok: %d guarded benchmarks within their baselines\n", len(entries))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", args...)
	os.Exit(2)
}

// scanBench extracts ns/op and B/op for every benchmark in `go test -bench`
// output. Benchmark lines look like:
//
//	BenchmarkFrontierSizing/scheduler-8   3   251068930 ns/op   2067546 B/op   12284 allocs/op
//
// The -N GOMAXPROCS suffix is optional and stripped. Only lines carrying a
// B/op figure (runs with -benchmem) are recorded.
func scanBench(r io.Reader) (map[string]benchResult, error) {
	out := map[string]benchResult{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var res benchResult
		ok := false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.nsPerOp = v
			case "B/op":
				res.bytesPerOp = int64(v)
				ok = true
			}
		}
		if ok {
			out[name] = res
		}
	}
	return out, sc.Err()
}
