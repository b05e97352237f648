// Command pcbl builds, inspects and queries pattern count–based labels.
//
// Subcommands:
//
//	pcbl gen      -name compas|bluenile|creditcard -rows N -seed S -out data.csv
//	pcbl inspect  -in data.csv
//	pcbl label    -in data.csv -bound 50 [-algo topdown|naive] [-render] [-html report.html]
//	pcbl save     -in data.csv {-attrs a,b,c | -bound N} -artifact DIR
//	pcbl estimate -artifact DIR -pattern "attr=value,attr2=value2"
//	pcbl audit    -artifact DIR -attrs a,b [-threshold N] [-all]
//	pcbl load     -artifact DIR
//	pcbl update   -in data.csv -artifact DIR [-since N] [-delta-out DIR]
//	pcbl serve    -artifact DIR [-addr :8077] [-request-timeout 30s] [-max-inflight 256] [-queue-timeout 1s]
//
// The gen subcommand materializes the synthetic evaluation datasets so the
// rest of the pipeline can be exercised on files, like a user's own data.
// label runs the optimal-label search and prints or renders the result. The
// label is published as a versioned on-disk artifact (see
// docs/artifact-format.md): save builds a label — over an explicit attribute
// set or by running the optimal-label search — and persists it including any
// merge-on-read spill runs; load summarizes a saved artifact; estimate and
// audit answer from a saved artifact without the data; serve answers
// count/estimate/marginal queries over HTTP/JSON from a reopened artifact.
// update maintains an artifact incrementally: when the CSV has grown, it
// counts ONLY the appended rows and merges them in (epoch incremented,
// crash-safe), bit-identical to rebuilding from scratch; a running serve
// daemon picks the new epoch up via SIGHUP or POST /v1/reload without
// dropping queries.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"pcbl"
	"pcbl/internal/datagen"
	"pcbl/internal/patexpr"
	"pcbl/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "label":
		err = runLabel(os.Args[2:])
	case "estimate":
		err = runEstimate(os.Args[2:])
	case "audit":
		err = runAudit(os.Args[2:])
	case "save":
		err = runSave(os.Args[2:])
	case "load":
		err = runLoad(os.Args[2:])
	case "update":
		err = runUpdate(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pcbl: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcbl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pcbl <subcommand> [flags]

subcommands:
  gen       generate a synthetic evaluation dataset as CSV
  inspect   summarize a CSV dataset (attributes, domains, value counts)
  label     generate an optimal label for a CSV dataset and print it
  save      build a label and persist it as an on-disk artifact directory
  load      summarize a saved label artifact
  estimate  estimate a pattern count from a saved artifact, without the data
  audit     flag under-represented attribute-value intersections from a
            saved artifact
  update    fold rows appended to the CSV into a saved artifact, reading
            only the appended suffix (or write them as a delta artifact)
  serve     answer label queries over HTTP/JSON from a saved artifact`)
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("name", "compas", "dataset: compas, bluenile or creditcard")
	rows := fs.Int("rows", 10000, "number of tuples")
	seed := fs.Uint64("seed", 1, "generation seed")
	out := fs.String("out", "", "output CSV path (stdout when empty)")
	fs.Parse(args)

	var (
		d   *pcbl.Dataset
		err error
	)
	switch *name {
	case "compas":
		d, err = datagen.COMPAS(*rows, *seed)
	case "bluenile":
		d, err = datagen.BlueNile(*rows, *seed)
	case "creditcard":
		d, err = datagen.CreditCard(*rows, *seed)
	default:
		return fmt.Errorf("unknown dataset %q", *name)
	}
	if err != nil {
		return err
	}
	if *out == "" {
		return pcbl.WriteCSV(os.Stdout, d)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := pcbl.WriteCSV(f, d); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d rows × %d attributes to %s\n", d.NumRows(), d.NumAttrs(), *out)
	return nil
}

func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "input CSV path (required)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	d, err := pcbl.ReadCSVFile(*in, pcbl.CSVOptions{})
	if err != nil {
		return err
	}
	fmt.Println(d.String())
	for a := 0; a < d.NumAttrs(); a++ {
		attr := d.Attr(a)
		counts := d.ValueCounts(a)
		fmt.Printf("  %-24s %d values", attr.Name(), attr.DomainSize())
		if nn := d.NonNullCount(a); nn < d.NumRows() {
			fmt.Printf(", %d NULLs", d.NumRows()-nn)
		}
		fmt.Println()
		for i, v := range attr.Domain() {
			if i >= 8 {
				fmt.Printf("      … %d more values\n", attr.DomainSize()-8)
				break
			}
			fmt.Printf("      %-28s %d\n", v, counts[i])
		}
	}
	return nil
}

func runLabel(args []string) error {
	fs := flag.NewFlagSet("label", flag.ExitOnError)
	in := fs.String("in", "", "input CSV path (required)")
	bound := fs.Int("bound", 50, "label size bound B_s")
	algo := fs.String("algo", "topdown", "search algorithm: topdown or naive")
	htmlOut := fs.String("html", "", "write a standalone HTML label report to this path")
	render := fs.Bool("render", false, "print the human-readable nutrition label")
	bins := fs.Int("bins", 5, "bucketize numeric attributes into this many bins (0 disables)")
	memBudgetMB := fs.Int("mem-budget-mb", 0, "group-by memory budget in MiB; attribute sets whose map state models over it are counted via on-disk spill runs, and over-budget result maps stay on disk (merge-on-read) (0 = unlimited)")
	spillDir := fs.String("spill-dir", "", "directory for spill run files (system temp dir when empty)")
	fs.Parse(args)
	d, err := readDataset(*in, *bins)
	if err != nil {
		return err
	}
	ps := pcbl.DistinctTuples(d)
	res, err := pcbl.GenerateLabel(d, pcbl.GenerateOptions{
		Bound:     *bound,
		Algorithm: pcbl.Algorithm(*algo),
		Patterns:  ps,
		FastEval:  true,
		Engine:    pcbl.EngineOptions{MemBudget: int64(*memBudgetMB) << 20, SpillDir: *spillDir},
	})
	if err != nil {
		return err
	}
	// Under a memory budget the label may hold merge-on-read spill runs;
	// remove them once every output that reads the label has been written.
	defer res.Label.ReleaseSpill()
	// The search scores candidates with the sorted early stop, which can
	// under-report a label's error; the printed error is the exhaustive one.
	eval := pcbl.Evaluate(res.Label, ps)
	fmt.Printf("label attributes: %s\n", res.Attrs.Format(d.AttrNames()))
	fmt.Printf("label size:       %d (bound %d)\n", res.Size, *bound)
	fmt.Printf("max abs error:    %.1f over %d distinct patterns\n", eval.MaxAbs, eval.N)
	st := res.Stats
	fmt.Printf("search:           %d sets examined (%d proved by bound), %d in bound, %s scored, %s built, %v total\n",
		st.SizeComputed, st.Proved, st.InBound, plural(st.Evaluated, "candidate"), plural(st.LabelsBuilt, "label"),
		st.Total().Round(1000))
	if st.Spilled > 0 {
		fmt.Printf("spill:            %d sets via %d on-disk runs (%d counted in parallel), %.1f MiB written\n",
			st.Spilled, st.SpillRuns, st.SpillParallelRuns,
			float64(st.SpillBytes)/(1<<20))
	}
	if st.SpillFallbacks > 0 {
		fmt.Printf("spill fallbacks:  %d sets hit disk trouble and were counted in memory (budget not honored)\n",
			st.SpillFallbacks)
	}
	if *render {
		text, err := pcbl.RenderLabel(res.Label, &eval)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println(text)
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		if err := pcbl.WriteHTMLReport(f, res.Label, &eval); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("HTML report written to %s\n", *htmlOut)
	}
	return nil
}

// plural formats a count of things: "1 label", "3 labels".
func plural(n int, thing string) string {
	if n == 1 {
		return "1 " + thing
	}
	return fmt.Sprintf("%d %ss", n, thing)
}

// readDataset loads (and optionally bucketizes) a labeling input. A dataset
// with zero rows is rejected here, before any label build: every downstream
// stat would be a meaningless zero, and the artifact/serve path would publish
// an empty label as if it described data.
func readDataset(in string, bins int) (*pcbl.Dataset, error) {
	if in == "" {
		return nil, fmt.Errorf("-in is required")
	}
	d, err := pcbl.ReadCSVFile(in, pcbl.CSVOptions{})
	if err != nil {
		return nil, err
	}
	if bins > 1 {
		d, err = pcbl.BucketizeAllNumeric(d, pcbl.BucketizeOptions{Bins: bins, Strategy: pcbl.EqualFrequency})
		if err != nil {
			return nil, err
		}
	}
	if d.NumRows() == 0 {
		return nil, fmt.Errorf("dataset %s has no rows; cannot build a label", in)
	}
	return d, nil
}

func runSave(args []string) error {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	in := fs.String("in", "", "input CSV path (required)")
	attrsArg := fs.String("attrs", "", "comma-separated label attributes (build L_S for exactly this S)")
	bound := fs.Int("bound", 0, "search for the optimal label within this size bound instead of -attrs")
	algo := fs.String("algo", "topdown", "search algorithm when -bound is used: topdown or naive")
	bins := fs.Int("bins", 5, "bucketize numeric attributes into this many bins (0 disables)")
	memBudgetMB := fs.Int("mem-budget-mb", 0, "group-by memory budget in MiB (0 = unlimited); over-budget labels persist their on-disk runs into the artifact")
	spillDir := fs.String("spill-dir", "", "directory for spill run files (system temp dir when empty)")
	artifactDir := fs.String("artifact", "", "output artifact directory (required; must not exist or be empty)")
	fs.Parse(args)
	if *artifactDir == "" {
		return fmt.Errorf("-artifact is required")
	}
	if (*attrsArg == "") == (*bound == 0) {
		return fmt.Errorf("exactly one of -attrs or -bound is required")
	}
	d, err := readDataset(*in, *bins)
	if err != nil {
		return err
	}

	var l *pcbl.Label
	eng := pcbl.EngineOptions{MemBudget: int64(*memBudgetMB) << 20, SpillDir: *spillDir}
	if *attrsArg != "" {
		var names []string
		for _, n := range strings.Split(*attrsArg, ",") {
			names = append(names, strings.TrimSpace(n))
		}
		l, err = pcbl.BuildLabelWith(d, pcbl.LabelOptions{Engine: eng}, names...)
		if err != nil {
			return err
		}
	} else {
		res, err := pcbl.GenerateLabel(d, pcbl.GenerateOptions{
			Bound:     *bound,
			Algorithm: pcbl.Algorithm(*algo),
			FastEval:  true,
			Engine:    eng,
		})
		if err != nil {
			return err
		}
		l = res.Label
	}
	defer l.ReleaseSpill()
	if err := pcbl.SaveLabelArtifact(l, *artifactDir); err != nil {
		return err
	}
	spilled := ""
	if l.PC().Spilled() {
		spilled = " (merge-on-read PC section)"
	}
	fmt.Printf("artifact written to %s\n", *artifactDir)
	fmt.Printf("label attributes: %s\n", strings.Join(labelSetNames(l), ", "))
	fmt.Printf("label size:       %d over %d rows%s\n", l.Size(), l.Rows(), spilled)
	return nil
}

func runLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	artifactDir := fs.String("artifact", "", "artifact directory (required)")
	fs.Parse(args)
	if *artifactDir == "" {
		return fmt.Errorf("-artifact is required")
	}
	l, m, err := pcbl.OpenLabelArtifact(*artifactDir)
	if err != nil {
		return err
	}
	defer l.ReleaseSpill()
	fmt.Printf("dataset:          %s (%d rows, %d attributes)\n", m.Dataset, m.TotalRows, len(m.Attrs))
	fmt.Printf("label attributes: %s\n", strings.Join(m.LabelAttrs, ", "))
	fmt.Printf("label size:       %d (+%d value counts)\n", l.Size(), l.VCSize())
	kinds := map[string]int{}
	for _, pm := range m.PCs {
		kinds[string(pm.Kind)]++
	}
	var parts []string
	for _, k := range []string{"sorted", "spilled"} {
		if kinds[k] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", kinds[k], k))
		}
	}
	fmt.Printf("payloads:         %d (%s); format version %d\n", len(m.PCs), strings.Join(parts, ", "), m.FormatVersion)
	return nil
}

func runUpdate(args []string) error {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	in := fs.String("in", "", "grown CSV path (required); same schema as the artifact, values must already be categorical/bucketized like the original build")
	artifactDir := fs.String("artifact", "", "artifact directory to update in place (required)")
	since := fs.Int("since", -1, "row watermark assertion: must equal the artifact's recorded row count (the default); the update skips this many data rows and counts only the rest")
	deltaOut := fs.String("delta-out", "", "write the counted delta as its own artifact here instead of merging (must not exist or be empty)")
	memBudgetMB := fs.Int("mem-budget-mb", 0, "group-by memory budget in MiB (0 = unlimited)")
	spillDir := fs.String("spill-dir", "", "directory for spill run files (system temp dir when empty)")
	workers := fs.Int("workers", 0, "counting workers (0 = all CPUs)")
	fs.Parse(args)
	if *in == "" || *artifactDir == "" {
		return fmt.Errorf("-in and -artifact are required")
	}

	base, m, err := pcbl.OpenLabelArtifact(*artifactDir)
	if err != nil {
		return err
	}
	schema := base.Dataset()
	defer base.ReleaseSpill()
	watermark := *since
	if watermark < 0 {
		watermark = m.TotalRows
	}
	// A delta only composes with the artifact when it starts exactly at
	// the recorded row count: a smaller watermark would re-count labeled
	// rows (double-counting them), a larger one would skip rows forever.
	if watermark != m.TotalRows {
		return fmt.Errorf("-since %d does not match the artifact's recorded %d rows; rows would be double-counted or lost", watermark, m.TotalRows)
	}

	// Parse only the appended suffix: the first `watermark` data rows are
	// skipped without being stored or interned, so the counting pass below
	// touches none of the already-labeled history.
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	delta, err := pcbl.ReadCSVAppend(f, schema, pcbl.CSVOptions{Name: *in, SkipRows: watermark})
	f.Close()
	if err != nil {
		return err
	}
	if delta.NumRows() == 0 {
		fmt.Printf("no rows beyond watermark %d; artifact unchanged (epoch %d, %d rows)\n",
			watermark, m.Epoch, m.TotalRows)
		return nil
	}

	eng := pcbl.EngineOptions{Workers: *workers, MemBudget: int64(*memBudgetMB) << 20, SpillDir: *spillDir}
	l, err := pcbl.BuildDeltaLabel(delta, eng, m.LabelAttrs...)
	if err != nil {
		return err
	}
	defer l.ReleaseSpill()
	fmt.Printf("counted %d appended rows (watermark %d) over %s\n",
		delta.NumRows(), watermark, strings.Join(m.LabelAttrs, ","))

	if *deltaOut != "" {
		if err := pcbl.SaveDeltaArtifact(l, *deltaOut, m); err != nil {
			return err
		}
		fmt.Printf("delta artifact written to %s (bound to epoch %d at %d rows; merge it with pcbl.MergeDeltaArtifact)\n",
			*deltaOut, m.Epoch, m.TotalRows)
		return nil
	}
	nm, err := pcbl.MergeLabelArtifact(*artifactDir, l, m)
	if err != nil {
		return err
	}
	fmt.Printf("artifact updated in place: epoch %d -> %d, %d -> %d rows\n",
		m.Epoch, nm.Epoch, m.TotalRows, nm.TotalRows)
	fmt.Println("a running `pcbl serve` daemon reloads it via SIGHUP or POST /v1/reload")
	return nil
}

// serveReady, when non-nil, observes the bound listen address before the
// server starts accepting; tests use it to reach a :0 listener.
var serveReady func(addr string)

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	artifactDir := fs.String("artifact", "", "artifact directory (required)")
	addr := fs.String("addr", ":8077", "HTTP listen address")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline; an expired request aborts its label reads and answers 503 (0 disables)")
	maxInflight := fs.Int("max-inflight", 256, "max concurrently executing query requests; excess requests queue (0 disables admission control)")
	queueTimeout := fs.Duration("queue-timeout", time.Second, "max time a request waits for an in-flight slot before 503 + Retry-After (0 waits until the client gives up)")
	fs.Parse(args)
	if *artifactDir == "" {
		return fmt.Errorf("-artifact is required")
	}
	if *requestTimeout < 0 || *queueTimeout < 0 || *maxInflight < 0 {
		return fmt.Errorf("-request-timeout, -queue-timeout and -max-inflight must be non-negative")
	}
	l, m, err := pcbl.OpenLabelArtifact(*artifactDir)
	if err != nil {
		return err
	}
	defer l.ReleaseSpill()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving label %s over %s (%d rows, epoch %d) on http://%s\n",
		strings.Join(m.LabelAttrs, ","), m.Dataset, m.TotalRows, m.Epoch, ln.Addr())
	if serveReady != nil {
		serveReady(ln.Addr().String())
	}

	// The handler follows the artifact: after `pcbl update` advances it in
	// place, SIGHUP (or POST /v1/reload) reopens it and atomically swaps
	// the new epoch in; queries in flight finish on the old one.
	h := serve.NewReloadableHandler(l, m.Epoch, func() (*pcbl.Label, int64, error) {
		nl, nmf, err := pcbl.OpenLabelArtifact(*artifactDir)
		if err != nil {
			return nil, 0, err
		}
		return nl, nmf.Epoch, nil
	})
	// Overload protection: cap in-flight queries, shed the excess with
	// 429/503 + Retry-After, and bound each admitted request's label reads
	// with a deadline. /healthz and /metrics bypass admission.
	h.SetLimits(serve.Limits{
		RequestTimeout: *requestTimeout,
		MaxInFlight:    *maxInflight,
		QueueTimeout:   *queueTimeout,
	})

	// A hardened server: header/read/write deadlines bound slow-loris
	// clients, and the byte cap bounds request bodies (every endpoint is a
	// GET with query parameters; 1 MiB is generous). The handler itself
	// recovers panics and degrades to 503 on spill read failures, so a
	// corrupted artifact slows answers down — it does not kill the daemon.
	srv := &http.Server{
		Handler:           http.MaxBytesHandler(h, 1<<20),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if epoch, err := h.Reload(); err != nil {
				fmt.Fprintf(os.Stderr, "pcbl: reload failed, epoch %d still serving: %v\n", epoch, err)
			} else {
				fmt.Printf("reloaded artifact, now serving epoch %d\n", epoch)
			}
		}
	}()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		stop()
		fmt.Println("shutting down")
		return srv.Shutdown(context.Background())
	}
}

// labelSetNames lists the names of a label's attribute set.
func labelSetNames(l *pcbl.Label) []string {
	d := l.Dataset()
	members := l.Attrs().Members()
	out := make([]string, len(members))
	for i, a := range members {
		out[i] = d.Attr(a).Name()
	}
	return out
}

func runEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	artifactDir := fs.String("artifact", "", "label artifact directory written by `pcbl save` (required)")
	patternArg := fs.String("pattern", "", `pattern as "attr=value,attr2=value2" (required)`)
	fs.Parse(args)
	if *artifactDir == "" || *patternArg == "" {
		return fmt.Errorf("-artifact and -pattern are required")
	}
	l, _, err := pcbl.OpenLabelArtifact(*artifactDir)
	if err != nil {
		return err
	}
	defer l.ReleaseSpill()
	p, err := pcbl.ParsePattern(l.Dataset(), *patternArg)
	if err != nil {
		return err
	}
	est, err := l.EstimateCtx(nil, p)
	if err != nil {
		return err
	}
	fmt.Printf("estimated count: %.1f of %d total rows (%.3f%%)\n",
		est, l.Rows(), 100*est/float64(l.Rows()))
	return nil
}

// runAudit estimates the size of every value combination over the given
// attributes from a saved artifact and flags those under the threshold —
// the paper's fitness-for-use scenario (inadequate representation of
// protected groups) as a command.
func runAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	artifactDir := fs.String("artifact", "", "label artifact directory written by `pcbl save` (required)")
	attrsArg := fs.String("attrs", "", "comma-separated attributes to intersect (required)")
	threshold := fs.Float64("threshold", 0, "flag combinations with estimated count below this (default: 0.5% of rows)")
	all := fs.Bool("all", false, "print every combination, not only flagged ones")
	fs.Parse(args)
	if *artifactDir == "" || *attrsArg == "" {
		return fmt.Errorf("-artifact and -attrs are required")
	}
	l, _, err := pcbl.OpenLabelArtifact(*artifactDir)
	if err != nil {
		return err
	}
	defer l.ReleaseSpill()
	d := l.Dataset()
	if *threshold <= 0 {
		*threshold = 0.005 * float64(l.Rows())
	}

	var names []string
	for _, n := range strings.Split(*attrsArg, ",") {
		n = strings.TrimSpace(n)
		if _, ok := d.AttrIndex(n); !ok {
			return fmt.Errorf("attribute %q not in label (have: %s)", n, strings.Join(d.AttrNames(), ", "))
		}
		names = append(names, n)
	}

	type finding struct {
		expr string
		est  float64
	}
	var findings []finding
	assign := map[string]string{}
	var rec func(int) error
	rec = func(i int) error {
		if i == len(names) {
			p, err := pcbl.NewPattern(d, assign)
			if err != nil {
				return err
			}
			est, err := l.EstimateCtx(nil, p)
			if err != nil {
				return err
			}
			if *all || est < *threshold {
				findings = append(findings, finding{patexpr.Format(names, assign), est})
			}
			return nil
		}
		a, _ := d.AttrIndex(names[i])
		for _, v := range d.Attr(a).Domain() {
			assign[names[i]] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(assign, names[i])
		return nil
	}
	if err := rec(0); err != nil {
		return err
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].est < findings[j].est })
	fmt.Printf("auditing %s over %d rows (threshold %.0f)\n\n", strings.Join(names, " × "), l.Rows(), *threshold)
	for _, f := range findings {
		marker := " "
		if f.est < *threshold {
			marker = "⚠"
		}
		fmt.Printf("%s %8.0f  %s\n", marker, f.est, f.expr)
	}
	if len(findings) == 0 {
		fmt.Println("no combinations below the threshold")
	}
	return nil
}
