// Command pcblbench runs the pcbl label pipeline end to end on seeded
// workloads — CSV ingest, label search or build, artifact save and open,
// HTTP queries from a closed and an open loop, and 1% updates merged and
// reloaded — checks every answer against a naive oracle, and prints every
// metric by name with its unit.
//
//	pcblbench run [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-dir DIR] [-out DIR]
//	pcblbench compare [-bench BENCHMARK.json] A B
//
// run starts one child process per workload, so peak memory and collector
// state are the workload's own, and writes each result to
// DIR/result-<workload>-seed<N>-trace<T>.json; the last line of standard
// output is the last workload's result. compare judges two directories of
// results. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "child":
		err = cmdChild(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:], os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcblbench: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pcblbench run [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-dir DIR] [-out DIR]
  pcblbench compare [-bench BENCHMARK.json] A B`)
}

// runFlags are the flags run passes on to each child.
type runFlags struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	dir, out string
}

func parseRunFlags(name string, args []string) (*runFlags, error) {
	var f runFlags
	fset := flag.NewFlagSet(name, flag.ContinueOnError)
	fset.StringVar(&f.workload, "workload", "", "comma-separated workloads; all when empty")
	fset.Uint64Var(&f.seed, "seed", 1, "seed of the generated data and the query pool")
	fset.Float64Var(&f.seconds, "seconds", 10, "length of the serve phase in seconds")
	fset.IntVar(&f.trace, "trace", 0, "1 runs the traced pass: per-layer metrics and DIR/trace-<workload>.json")
	fset.StringVar(&f.dir, "dir", filepath.Join(".bench_build", "work"), "working directory for CSVs, artifacts and spill runs")
	fset.StringVar(&f.out, "out", filepath.Join(".bench_build", "results"), "directory for result and trace files")
	if err := fset.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case fset.NArg() > 0:
		return nil, fmt.Errorf("unexpected arguments %q", fset.Args())
	case f.trace != 0 && f.trace != 1:
		return nil, fmt.Errorf("-trace must be 0 or 1")
	case f.seconds <= 0:
		return nil, fmt.Errorf("-seconds must be positive")
	}
	return &f, nil
}

func (f *runFlags) args(workload string) []string {
	return []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(f.seed, 10),
		"-seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(f.trace),
		"-dir", filepath.Join(f.dir, workload),
		"-out", f.out,
	}
}

func cmdRun(args []string) error {
	f, err := parseRunFlags("run", args)
	if err != nil {
		return err
	}
	var list []*workload
	if f.workload == "" {
		list = workloads
	} else {
		for _, name := range strings.Split(f.workload, ",") {
			w, err := findWorkload(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			list = append(list, w)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// Temp files of the engine (merge rewrites of spilled runs) stay in
	// the working directory too.
	tmp, err := filepath.Abs(filepath.Join(f.dir, "tmp"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	var failed []string
	for _, w := range list {
		cmd := exec.Command(self, append([]string{"child"}, f.args(w.name)...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, "; "))
	}
	return nil
}

// resultFile is what compare reads: one run's result and where it ran.
type resultFile struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Machine  machine `json:"machine"`
	result
}

type machine struct {
	CPU  string `json:"cpu"`
	NCPU int    `json:"ncpu"`
	Go   string `json:"go"`
	FS   string `json:"fs"`
}

var errWrong = errors.New("wrong answers (see above)")

func cmdChild(args []string) error {
	f, err := parseRunFlags("child", args)
	if err != nil {
		return err
	}
	w, err := findWorkload(f.workload)
	if err != nil {
		return err
	}
	cfg := runConfig{
		seed: f.seed, seconds: f.seconds, trace: f.trace == 1,
		setups: 3, dir: f.dir, out: f.out, log: os.Stderr,
	}
	if cfg.trace {
		cfg.setups = 1
	}
	if err := os.MkdirAll(f.out, 0o755); err != nil {
		return err
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return report(w, f, res, os.Stdout, os.Stderr)
}

// report writes the result file, prints the metrics to stderr and the
// result line to stdout, and fails a run that gave a wrong answer.
func report(w *workload, f *runFlags, res *result, stdout, stderr io.Writer) error {
	rf := resultFile{
		Workload: w.name, Seed: f.seed, Trace: f.trace == 1, Seconds: f.seconds,
		Machine: machine{CPU: cpuModel(), NCPU: runtime.NumCPU(), Go: runtime.Version(), FS: fsType(f.dir)},
		result:  *res,
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, f.seed, f.trace)
	if err := os.WriteFile(filepath.Join(f.out, name), data, 0o644); err != nil {
		return err
	}
	printSummary(stderr, w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errWrong
	}
	return nil
}

// printSummary writes the metrics one per line.
func printSummary(w io.Writer, name string, r *result) {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, v.Value, v.Unit)
	}
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// count of the process's peak resident set (VmHWM) from the resident set
// now, so that peakRSS reads the peak of what runs after it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir: fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%X", st.Type)
}
