package experiments

import (
	"strings"
	"testing"
	"time"

	"pcbl/internal/core"
	"pcbl/internal/lattice"
)

func tinyCfg() Config {
	return Config{Scale: ScaleTiny, Seed: 5, SamplingTrials: 2}.WithDefaults()
}

func TestDatasets(t *testing.T) {
	cfg := tinyCfg()
	all, err := AllDatasets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("datasets = %d", len(all))
	}
	wantAttrs := map[string]int{"BlueNile": 7, "COMPAS": 17, "Credit Card": 24}
	for _, nd := range all {
		if nd.D.NumAttrs() != wantAttrs[nd.Name] {
			t.Errorf("%s: attrs = %d, want %d", nd.Name, nd.D.NumAttrs(), wantAttrs[nd.Name])
		}
		if len(nd.Bounds) == 0 {
			t.Errorf("%s: no bounds", nd.Name)
		}
	}
	if _, err := DatasetByName("nope", cfg); err == nil {
		t.Error("unknown dataset accepted")
	}
	for _, alias := range []string{"bluenile", "compas", "creditcard"} {
		if _, err := DatasetByName(alias, cfg); err != nil {
			t.Errorf("alias %q: %v", alias, err)
		}
	}
}

func TestPaperScaleRowCounts(t *testing.T) {
	// Only check the advertised numbers, without generating.
	if rowsFor("BlueNile", ScalePaper) != 116300 ||
		rowsFor("COMPAS", ScalePaper) != 60843 ||
		rowsFor("Credit Card", ScalePaper) != 30000 {
		t.Error("paper-scale row counts drifted from §IV-A")
	}
}

func TestRunAccuracy(t *testing.T) {
	cfg := tinyCfg()
	nd, err := BlueNile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAccuracy(nd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(nd.Bounds) {
		t.Fatalf("points = %d, want %d", len(res.Points), len(nd.Bounds))
	}
	for _, p := range res.Points {
		if p.LabelSize > p.Bound {
			t.Errorf("bound %d: label size %d exceeds bound", p.Bound, p.LabelSize)
		}
		if p.PCBL.MaxAbs < 0 || p.Sample.MaxAbs < 0 {
			t.Error("negative errors")
		}
	}
	// PCBL must never do worse than pure independence estimation (the
	// label search candidates dominate the empty-set label). The Fig 5
	// PCBL-vs-sampling ordering is a paper-scale property: at tiny scale
	// most tuples have count 1 and tiny fractional PCBL estimates blow up
	// the q-error while the sampling baseline's est:=1 rule caps it; see
	// EXPERIMENTS.md.
	indep := core.Evaluate(must(core.BuildLabel(nd.D, lattice.AttrSet(0), core.CountOptions{Workers: 1})), core.DistinctTuples(nd.D), core.EvalOptions{})
	for _, p := range res.Points {
		if p.PCBL.MaxAbs > indep.MaxAbs+1e-9 {
			t.Errorf("bound %d: PCBL max err %.1f worse than independence %.1f",
				p.Bound, p.PCBL.MaxAbs, indep.MaxAbs)
		}
	}
	// Tables render and carry one row per point.
	f4 := res.Fig4Table()
	if len(f4.Rows) != len(res.Points) {
		t.Error("Fig4 table rows mismatch")
	}
	if !strings.Contains(f4.Render(), "BlueNile") {
		t.Error("Fig4 table missing dataset name")
	}
	f5 := res.Fig5Table()
	if len(f5.Rows) != len(res.Points) {
		t.Error("Fig5 table rows mismatch")
	}
	if res.Fig4Plot() == "" || res.Fig5Plot() == "" {
		t.Error("plots empty")
	}
}

func TestRunGenTimeByBound(t *testing.T) {
	cfg := tinyCfg()
	nd, err := BlueNile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGenTimeByBound(nd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(nd.Bounds) {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Optimized <= 0 || p.Naive <= 0 {
			t.Error("non-positive runtime recorded")
		}
		if p.OptimizedExamined > p.NaiveExamined {
			t.Errorf("bound %d: optimized examined %d > naive %d", p.X, p.OptimizedExamined, p.NaiveExamined)
		}
	}
	if !strings.Contains(res.Table().Render(), "Fig 6") {
		t.Error("table title wrong")
	}
	if res.Plot() == "" {
		t.Error("plot empty")
	}
}

func TestNaiveBudgetSkips(t *testing.T) {
	cfg := tinyCfg()
	cfg.NaiveBudget = time.Nanosecond // force a skip after the first run
	nd, err := BlueNile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGenTimeByBound(nd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 2 {
		t.Skip("need at least two bounds")
	}
	if res.Points[0].NaiveSkipped {
		t.Error("first point should always run naive")
	}
	for _, p := range res.Points[1:] {
		if !p.NaiveSkipped {
			t.Error("budget did not skip subsequent naive runs")
		}
	}
	if !strings.Contains(res.Table().Render(), "skipped") {
		t.Error("table does not mark skipped runs")
	}
}

func TestRunGenTimeByDataSize(t *testing.T) {
	cfg := tinyCfg()
	nd, err := BlueNile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGenTimeByDataSize(nd, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	base := nd.D.NumRows()
	for i, p := range res.Points {
		if p.X != base*(i+1) {
			t.Errorf("point %d: rows = %d, want %d", i, p.X, base*(i+1))
		}
	}
	if _, err := RunGenTimeByDataSize(nd, cfg, 0); err == nil {
		t.Error("factor 0 accepted")
	}
}

func TestRunGenTimeByAttrCount(t *testing.T) {
	cfg := tinyCfg()
	nd, err := BlueNile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGenTimeByAttrCount(nd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := nd.D.NumAttrs() - 2; len(res.Points) != want {
		t.Fatalf("points = %d, want %d", len(res.Points), want)
	}
	if res.Points[0].X != 3 {
		t.Error("sweep should start at 3 attributes")
	}
}

func TestRunCandidates(t *testing.T) {
	cfg := tinyCfg()
	nd, err := BlueNile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCandidates(nd, cfg, []int{10, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Optimized > p.Naive {
			t.Errorf("bound %d: optimized %d > naive %d", p.Bound, p.Optimized, p.Naive)
		}
		if p.OptimizedInBound > p.Optimized {
			t.Errorf("bound %d: in-bound %d > examined %d", p.Bound, p.OptimizedInBound, p.Optimized)
		}
	}
	if !strings.Contains(res.Table().Render(), "gain") {
		t.Error("table missing gain column")
	}
	if res.Plot() == "" {
		t.Error("plot empty")
	}
}

func TestRunSubLabels(t *testing.T) {
	cfg := tinyCfg()
	nd, err := COMPAS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSubLabels(nd, cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DropOne) == 0 {
		t.Fatal("no drop-one entries")
	}
	if res.Optimal.Size > 100 {
		t.Errorf("optimal size %d exceeds bound", res.Optimal.Size)
	}
	// The §IV-E claim: sub-labels do not beat the optimal label.
	if !res.HoldsAssumption() {
		t.Log(res.Table().Render())
		t.Error("a drop-one sub-label beat the optimal label")
	}
	if !strings.Contains(res.Table().Render(), "(optimal)") {
		t.Error("table missing optimal row")
	}
}

func TestRenderFig1(t *testing.T) {
	cfg := tinyCfg()
	nd, err := COMPAS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RenderFig1(nd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Total size", "Gender", "Race", "Maximal Error", "Standard deviation"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig 1 rendering missing %q", want)
		}
	}
	// Fig 1 fails gracefully for datasets without the COMPAS schema.
	bn, err := BlueNile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RenderFig1(bn, cfg); err == nil {
		t.Error("Fig 1 accepted a dataset without Gender/Race")
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{Columns: []string{"a", "b"}}
	tab.AddRow(1, "x")
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a,b\n1,x\n" {
		t.Errorf("csv = %q", sb.String())
	}
}
