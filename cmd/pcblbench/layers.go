package main

// Every entry point of the repository the benchmark calls is in this file,
// so an API change touches the benchmark here, at call sites only. The
// pcbl facade and HTTP are preferred; internal packages are used only where
// the facade has no seam: datagen for inputs, ScanStats on a label build,
// the filesystem seam of artifact saves and merges, direct label queries,
// and the serve handler itself.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"pcbl"
	"pcbl/internal/artifact"
	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/iofault"
	"pcbl/internal/patexpr"
	"pcbl/internal/serve"
)

const (
	genBlueNileRows   = datagen.BlueNileRows
	genCreditCardRows = datagen.CreditCardRows
	genCOMPASRows     = datagen.COMPASRows
)

func genBlueNile(rows int, seed uint64) (*pcbl.Dataset, error) { return datagen.BlueNile(rows, seed) }
func genCreditCard(rows int, seed uint64) (*pcbl.Dataset, error) {
	return datagen.CreditCard(rows, seed)
}
func genCOMPAS(rows int, seed uint64) (*pcbl.Dataset, error) { return datagen.COMPAS(rows, seed) }

// genHicard draws 4 independent uniform attributes of domain 200: the
// mixed-radix key (200^4) fits uint64 but is far beyond the dense tier,
// and nearly every row is distinct.
func genHicard(rows int, seed uint64) (*pcbl.Dataset, error) {
	vals := make([]string, 200)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%03d", i)
	}
	spec := datagen.Spec{Name: "hicard"}
	for c := 0; c < 4; c++ {
		spec.Cols = append(spec.Cols, datagen.Col{Name: fmt.Sprintf("c%d", c), Values: vals})
	}
	return spec.Generate(rows, seed)
}

type (
	label       = pcbl.Label
	manifest    = pcbl.LabelManifest
	engine      = pcbl.EngineOptions
	scanStats   = core.ScanStats
	searchStats = pcbl.SearchStats
	countingFS  = iofault.FaultFS
)

func writeCSV(path string, d *pcbl.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pcbl.WriteCSV(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readCSV(path string) (*pcbl.Dataset, error) { return pcbl.ReadCSVFile(path, pcbl.CSVOptions{}) }

// readAppend reads the rows [skip, skip+keep) of a grown CSV onto base's
// dictionaries — the counting input of one update.
func readAppend(path string, base *pcbl.Dataset, skip, keep int) (*pcbl.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pcbl.ReadCSVAppend(f, base, pcbl.CSVOptions{Name: path, SkipRows: skip, MaxRows: keep})
}

func headRows(d *pcbl.Dataset, n int) (*pcbl.Dataset, error) { return d.Slice(0, n) }

func distinctTuples(d *pcbl.Dataset) *pcbl.PatternSet { return pcbl.DistinctTuples(d) }

func search(d *pcbl.Dataset, ps *pcbl.PatternSet, bound int, eng engine) (*pcbl.SearchResult, error) {
	return pcbl.GenerateLabel(d, pcbl.GenerateOptions{Bound: bound, FastEval: true, Patterns: ps, Engine: eng})
}

func buildLabel(d *pcbl.Dataset, eng engine, attrs []string) (*label, error) {
	return pcbl.BuildLabelWith(d, pcbl.LabelOptions{Engine: eng}, attrs...)
}

// buildLabelStats is buildLabel with the engine's scan counters attached,
// which the facade does not expose.
func buildLabelStats(d *pcbl.Dataset, eng engine, attrs []string, st *scanStats) (*label, error) {
	s, err := pcbl.AttrSetOf(d, attrs...)
	if err != nil {
		return nil, err
	}
	return core.BuildLabelOpts(d, s, core.CountOptions{
		Workers: eng.Workers, MemBudget: eng.MemBudget, SpillDir: eng.SpillDir, Stats: st,
	}), nil
}

func buildDelta(delta *pcbl.Dataset, eng engine, attrs []string) (*label, error) {
	return pcbl.BuildDeltaLabel(delta, eng, attrs...)
}

func labelSize(d *pcbl.Dataset, attrs []string) (int, error) {
	size, _, err := pcbl.LabelSize(d, -1, attrs...)
	return size, err
}

func maxAbsErr(l *label, ps *pcbl.PatternSet) float64 { return pcbl.Evaluate(l, ps).MaxAbs }

func labelAttrNames(l *label) []string {
	d := l.Dataset()
	var out []string
	for _, a := range l.Attrs().Members() {
		out = append(out, d.Attr(a).Name())
	}
	return out
}

// newCountingFS counts filesystem operations by class; no fault is ever
// scripted on it.
func newCountingFS() *countingFS { return iofault.NewFaultFS(nil) }

func fsCounts(fs *countingFS) (syncs, writes int64) {
	c := fs.Counts()
	return c[iofault.OpSync] + c[iofault.OpSyncDir], c[iofault.OpWrite]
}

func saveArtifact(l *label, dir string, fs *countingFS) error {
	if fs == nil {
		return pcbl.SaveLabelArtifact(l, dir)
	}
	return artifact.SaveFS(l, dir, fs)
}

func openArtifact(dir string) (*label, *manifest, error) { return pcbl.OpenLabelArtifact(dir) }

func mergeArtifact(dir string, delta *label, base *manifest, fs *countingFS) (*manifest, error) {
	if fs == nil {
		return pcbl.MergeLabelArtifact(dir, delta, base)
	}
	return artifact.MergeIntoFS(dir, delta, base, fs)
}

type handler = serve.Handler

// newHandler wraps a label in the daemon's query handler with the limits
// `pcbl serve` applies by default.
func newHandler(l *label, epoch int64, reload func() (*label, int64, error)) *handler {
	h := serve.NewReloadableHandler(l, epoch, reload)
	h.SetLimits(serve.Limits{RequestTimeout: 30 * time.Second, MaxInFlight: 256, QueueTimeout: time.Second})
	return h
}

// newServer configures the HTTP server exactly as `pcbl serve` does.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           http.MaxBytesHandler(h, 1<<20),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

type (
	countResult    = serve.CountResult
	estimateResult = serve.EstimateResult
	marginalResult = serve.MarginalResult
)

func formatPattern(names []string, assign map[string]string) string {
	return patexpr.Format(names, assign)
}

func parsePattern(d *pcbl.Dataset, expr string) (pcbl.Pattern, error) {
	return pcbl.ParsePattern(d, expr)
}

// The direct label queries the handler makes, without HTTP.
func countPattern(l *label, p pcbl.Pattern) (int, error) {
	c, _, err := l.CountCtx(context.Background(), p)
	return c, err
}

func estimate(l *label, p pcbl.Pattern) (float64, error) {
	return l.EstimateCtx(context.Background(), p)
}

func marginalSize(l *label, attrs []string) (int, error) {
	d := l.Dataset()
	sub, err := pcbl.AttrSetOf(d, attrs...)
	if err != nil {
		return 0, err
	}
	pc, _, err := l.MarginalPCCtx(context.Background(), sub)
	if err != nil || pc == nil {
		return 0, err
	}
	n := 0
	err = pc.EachCtx(context.Background(), d.NumAttrs(), func([]uint16, int) bool { n++; return true })
	return n, err
}

// eachPattern visits every (pattern, count) entry of the label's PC
// section with the pattern's values as strings, in attribute order.
func eachPattern(l *label, fn func(vals []string, count int)) error {
	d := l.Dataset()
	members := l.Attrs().Members()
	vals := make([]string, len(members))
	return l.PC().EachE(d.NumAttrs(), func(ids []uint16, count int) bool {
		for i, a := range members {
			vals[i] = d.Attr(a).Value(ids[a])
		}
		fn(vals, count)
		return true
	})
}

// spillReads reports a merge-on-read label's lookup counters; all zero for
// an in-memory label.
func spillReads(l *label) (hot, floating, loads, retries int64) {
	st, _ := l.PC().SpillReadStats()
	return st.HotHits, st.FloatingHits, st.RunLoads, st.Retries
}
