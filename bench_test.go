package pcbl

// Benchmark harness: one benchmark per evaluation figure of the paper (run
// cmd/experiments for the full paper-scale tables; these track the cost of
// each experiment's hot path at reduced scale), plus ablation benchmarks for
// the design choices called out in DESIGN.md.
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcbl/internal/core"
	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
	"pcbl/internal/experiments"
	"pcbl/internal/lattice"
	"pcbl/internal/pgstats"
	"pcbl/internal/sampling"
	"pcbl/internal/search"
	"pcbl/internal/serve"
	"pcbl/internal/spill"
)

// Bench datasets are generated once and shared.
var benchOnce sync.Once
var benchData struct {
	bluenile, compas, creditcard *dataset.Dataset
	wide                         *dataset.Dataset // forces two-word keys
	psBlueNile                   *core.PatternSet
	psCompas                     *core.PatternSet
	psCreditCard                 *core.PatternSet
}

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		if benchData.bluenile, err = datagen.BlueNile(20000, 1); err != nil {
			panic(err)
		}
		if benchData.compas, err = datagen.COMPAS(10000, 2); err != nil {
			panic(err)
		}
		if benchData.creditcard, err = datagen.CreditCard(6000, 3); err != nil {
			panic(err)
		}
		benchData.wide = wideDataset(8000, 16, 32)
		benchData.psBlueNile = core.DistinctTuples(benchData.bluenile)
		benchData.psCompas = core.DistinctTuples(benchData.compas)
		benchData.psCreditCard = core.DistinctTuples(benchData.creditcard)
	})
}

// wideDataset builds a schema whose domain product overflows 63 bits, so
// a full-width group-by keys more than one word.
func wideDataset(rows, attrs, domain int) *dataset.Dataset {
	return cycledWideDataset(rows, attrs, domain, rows)
}

// cycledWideDataset is wideDataset over rows that repeat its first period
// rows, so a full-width group-by counts at most period distinct keys.
func cycledWideDataset(rows, attrs, domain, period int) *dataset.Dataset {
	return genWideDataset(rows, attrs, domain, period, false)
}

// hotWideDataset is wideDataset with nine rows in ten set to its first
// row: one tuple holds 90% of the rows, and the rest are distinct.
func hotWideDataset(rows, attrs, domain int) *dataset.Dataset {
	return genWideDataset(rows, attrs, domain, rows, true)
}

// genWideDataset draws rows of attrs attributes of domain values, the
// draw restarting every period rows; with hot, every row whose index is
// not a multiple of ten repeats the first row.
func genWideDataset(rows, attrs, domain, period int, hot bool) *dataset.Dataset {
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	bld := dataset.NewBuilder("wide", names...)
	var v uint64
	row := make([]string, attrs)
	var first []string
	for r := 0; r < rows; r++ {
		if r%period == 0 {
			v = 88172645463325252
		}
		for i := range row {
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			row[i] = string(rune('A' + int(v%uint64(domain))))
		}
		if r == 0 {
			first = slices.Clone(row)
		}
		if hot && r%10 != 0 {
			bld.AppendStrings(first...)
		} else {
			bld.AppendStrings(row...)
		}
	}
	d, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return d
}

// --- Figure 1: nutrition-label rendering -------------------------------

func BenchmarkFig01_RenderLabel(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	s, _ := lattice.FromNames(d.AttrNames(), "Gender", "Race")
	l := must(core.BuildLabel(d, s, core.CountOptions{Workers: 1}))
	eval := core.Evaluate(l, benchData.psCompas, core.EvalOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(core.Render(l, core.RenderOptions{Eval: &eval}))
	}
}

// --- Figure 4: accuracy sweep (PCBL vs baselines, absolute error) ------

func benchAccuracy(b *testing.B, d *dataset.Dataset, bound int) {
	ps := core.DistinctTuples(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := search.TopDown(d, ps, search.Options{Bound: bound, FastEval: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = core.Evaluate(res.Label, ps, core.EvalOptions{})
	}
}

func BenchmarkFig04_BlueNile_PCBL(b *testing.B) {
	benchSetup(b)
	benchAccuracy(b, benchData.bluenile, 50)
}

func BenchmarkFig04_COMPAS_PCBL(b *testing.B) {
	benchSetup(b)
	benchAccuracy(b, benchData.compas, 50)
}

func BenchmarkFig04_CreditCard_PCBL(b *testing.B) {
	benchSetup(b)
	benchAccuracy(b, benchData.creditcard, 50)
}

func BenchmarkFig04_BlueNile_Postgres(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := pgstats.Analyze(d, pgstats.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = core.Evaluate(st, ps, core.EvalOptions{})
	}
}

func BenchmarkFig04_BlueNile_Sampling(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	size := sampling.SampleSizeFor(d, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := sampling.New(d, size, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		_ = core.Evaluate(est, ps, core.EvalOptions{})
	}
}

// --- Figure 5: q-error evaluation ---------------------------------------

func BenchmarkFig05_Evaluate_QError(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	res, err := search.TopDown(d, ps, search.Options{Bound: 50, FastEval: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Evaluate(res.Label, ps, core.EvalOptions{})
	}
}

// --- Figure 6: label generation time, naive vs optimized ----------------

func BenchmarkFig06_Naive_BlueNile(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Naive(d, ps, search.Options{Bound: 50, FastEval: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06_TopDown_BlueNile(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.TopDown(d, ps, search.Options{Bound: 50, FastEval: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06_Naive_COMPAS(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	ps := benchData.psCompas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Naive(d, ps, search.Options{Bound: 30, FastEval: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06_TopDown_COMPAS(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	ps := benchData.psCompas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.TopDown(d, ps, search.Options{Bound: 30, FastEval: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig06_TopDown_CreditCard is the evaluation-heavy shape: 24
// attributes put many candidates in the bound, and the search scores each
// through its row index.
func BenchmarkFig06_TopDown_CreditCard(b *testing.B) {
	benchSetup(b)
	d := benchData.creditcard
	ps := benchData.psCreditCard
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.TopDown(d, ps, search.Options{Bound: 100, FastEval: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchEval is a whole TopDown search over the bench COMPAS
// data at bound 30, with FastEval on (fast) and off (exact). With FastEval
// off every candidate scores every pattern, the evaluation path no other
// benchmark searches.
func BenchmarkSearchEval(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	ps := benchData.psCompas
	for _, arm := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"exact", false}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := search.TopDown(d, ps, search.Options{Bound: 30, FastEval: arm.fast}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7: runtime vs data size -------------------------------------

func BenchmarkFig07_DataSize(b *testing.B) {
	benchSetup(b)
	for _, factor := range []int{1, 2, 4} {
		scaled, err := datagen.Scale(benchData.bluenile, factor, 9)
		if err != nil {
			b.Fatal(err)
		}
		ps := core.DistinctTuples(scaled)
		b.Run(sizeName(factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := search.TopDown(scaled, ps, search.Options{Bound: 50, FastEval: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(factor int) string {
	return "x" + string(rune('0'+factor))
}

// --- Figure 8: runtime vs attribute count -------------------------------

func BenchmarkFig08_AttrCount(b *testing.B) {
	benchSetup(b)
	for _, k := range []int{3, 5, 7} {
		proj, err := benchData.bluenile.Prefix(k)
		if err != nil {
			b.Fatal(err)
		}
		ps := core.DistinctTuples(proj)
		b.Run("attrs"+string(rune('0'+k)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := search.TopDown(proj, ps, search.Options{Bound: 50, FastEval: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 9: candidate sets examined -----------------------------------

func BenchmarkFig09_Candidates(b *testing.B) {
	benchSetup(b)
	nd := experiments.NamedDataset{Name: "BlueNile", D: benchData.bluenile}
	cfg := experiments.Config{Scale: experiments.ScaleTiny, Seed: 1, SamplingTrials: 1}
	b.ResetTimer()
	var naive, opt int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCandidates(nd, cfg, []int{50})
		if err != nil {
			b.Fatal(err)
		}
		naive, opt = res.Points[0].Naive, res.Points[0].Optimized
	}
	b.ReportMetric(float64(naive), "naive-sets")
	b.ReportMetric(float64(opt), "opt-sets")
}

// --- Figure 10: optimal label vs drop-one sub-labels ---------------------

func BenchmarkFig10_SubLabels(b *testing.B) {
	benchSetup(b)
	nd := experiments.NamedDataset{Name: "COMPAS", D: benchData.compas}
	cfg := experiments.Config{Scale: experiments.ScaleTiny, Seed: 1, SamplingTrials: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSubLabels(nd, cfg, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core micro-benchmarks ------------------------------------------------

func BenchmarkCore_BuildLabel(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	s, _ := lattice.FromNames(d.AttrNames(), "DecileScore", "ScoreText", "RecSupervisionLevel")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(core.BuildLabel(d, s, core.CountOptions{Workers: 1}))
	}
}

func BenchmarkCore_Estimate(b *testing.B) {
	benchSetup(b)
	d := benchData.compas
	s, _ := lattice.FromNames(d.AttrNames(), "DecileScore", "ScoreText")
	l := must(core.BuildLabel(d, s, core.CountOptions{Workers: 1}))
	ps := benchData.psCompas
	row := ps.Row(0)
	attrs := ps.Attrs(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.EstimateRow(row, attrs)
	}
}

func BenchmarkCore_DistinctTuples(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		_ = core.DistinctTuples(benchData.bluenile)
	}
}

// --- Counting engine: sharded group-by and frontier sizing ---------------
//
// Recorded baselines live in BENCH_pr1.json (note the environment block:
// wall-clock speedup requires more than one CPU; single-core runs measure
// only the sharding overhead).

var paperScaleOnce sync.Once
var paperScaleBlueNile *dataset.Dataset

// benchPaperScale returns the paper-scale synthetic dataset: Blue Nile at
// its §IV-A row count (116,300 rows).
func benchPaperScale(b *testing.B) *dataset.Dataset {
	b.Helper()
	paperScaleOnce.Do(func() {
		d, err := datagen.BlueNile(116300, 1)
		if err != nil {
			panic(err)
		}
		paperScaleBlueNile = d
	})
	return paperScaleBlueNile
}

// benchFrontier is the kind of level the search's enumeration phase sizes
// in one LabelSizes call: every 2-subset of the dataset's attributes.
func benchFrontier(d *dataset.Dataset) []lattice.AttrSet {
	var sets []lattice.AttrSet
	lattice.Combinations(d.NumAttrs(), 2, func(s lattice.AttrSet) bool {
		sets = append(sets, s)
		return true
	})
	return sets
}

func BenchmarkBuildPCSequential(b *testing.B) {
	d := benchPaperScale(b)
	full := lattice.FullSet(d.NumAttrs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(core.BuildPC(d, full, core.CountOptions{Workers: 1}))
	}
}

func BenchmarkBuildPCParallel(b *testing.B) {
	d := benchPaperScale(b)
	full := lattice.FullSet(d.NumAttrs())
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = must(core.BuildPC(d, full, core.CountOptions{Workers: workers}))
			}
		})
	}
	// Pooled variants: per-worker shard slabs and key scratch cycle through
	// a shared arena, so steady-state bytes/op stays near the single result
	// slab for every worker count (the unpooled dense path allocates one
	// full-radix shard per worker).
	pool := core.NewVecPool(0)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("pooled-workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = must(core.BuildPC(d, full, core.CountOptions{Workers: workers, Pool: pool}))
			}
		})
	}
}

// BenchmarkLabelSizePerSet is the pre-engine enumeration cost: one full
// dataset scan per frontier set.
func BenchmarkLabelSizePerSet(b *testing.B) {
	d := benchPaperScale(b)
	sets := benchFrontier(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sets {
			_, _ = must2(core.LabelSize(d, s, 50, core.CountOptions{Workers: 1}))
		}
	}
}

func BenchmarkLabelSizeFused(b *testing.B) {
	d := benchPaperScale(b)
	sets := benchFrontier(d)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = must2(core.LabelSizes(d, sets, 50, core.CountOptions{Workers: workers}))
			}
		})
	}
}

// smallDomainDataset builds the frontier-sizing workload: many attributes
// with tiny domains, so the search enumerates several lattice levels and
// every candidate's key space is dense-countable.
func smallDomainDataset(rows, attrs, domain int) *dataset.Dataset {
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	bld := dataset.NewBuilder("smalldomain", names...)
	v := uint64(2463534242)
	row := make([]string, attrs)
	for r := 0; r < rows; r++ {
		for i := range row {
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			row[i] = string(rune('A' + int(v%uint64(domain))))
		}
		bld.AppendStrings(row...)
	}
	d, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return d
}

var frontierOnce sync.Once
var frontierData *dataset.Dataset

// BenchmarkFrontierSizing measures the enumeration phase (search.Enumerate:
// frontier sizing across every lattice level, no evaluation) on a
// small-domain multi-level workload. The scheduler variant's bytes/op is
// gated against BENCH_pr3.json by bench_manifest.json.
func BenchmarkFrontierSizing(b *testing.B) {
	frontierOnce.Do(func() {
		frontierData = smallDomainDataset(120000, 12, 3)
	})
	d := frontierData
	opts := search.Options{Bound: 200, CountOptions: core.CountOptions{Workers: 1}}
	b.Run("scheduler", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cands, stats, err := search.Enumerate(d, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(cands) == 0 || stats.SizeComputed == 0 {
				b.Fatal("empty enumeration")
			}
		}
	})
}

// --- External-memory spill group-by (PR 4) --------------------------------
//
// Recorded baselines live in BENCH_pr4.json. The spill tier's claim is
// about live heap, not allocation churn: grouping state at any instant is
// one on-disk run's map (bounded by CountOptions.MemBudget) instead of the
// whole distinct-key space. BenchmarkSpillGroupBy tracks the end-to-end
// engine cost of both tiers, both record formats and spilled sizing
// (bytes/op gated by the benchguard manifest); BenchmarkSpillLiveHeap
// measures the live-heap bound directly, forcing a GC while each run's map
// is live and reporting the peak.

var spillBenchOnce sync.Once
var spillBenchData *dataset.Dataset

// u64SpillData is the uint64-record spill workload: 8 domain-40
// attributes give a 40^8 mixed-radix key — fits uint64, far beyond the
// dense tier — so a budgeted full-set group-by spills one-word 8-byte
// records instead of two-word 16-byte records.
var u64SpillOnce sync.Once
var u64SpillData *dataset.Dataset

// spillBenchSetup returns a two-word-key dataset (the domain product
// overflows 63 bits, nearly all rows distinct — the unbounded-domain worst
// case) and a memory budget forcing its full-set group-by into >= 6
// on-disk runs.
func spillBenchSetup(b *testing.B) (d *dataset.Dataset, budget int64) {
	b.Helper()
	spillBenchOnce.Do(func() { spillBenchData = wideDataset(60000, 12, 40) })
	d = spillBenchData
	// The budget is a sixth of rows × (2·attrs + 64) bytes, the footprint
	// model of the byte-string keys these gates were recorded on, kept so
	// the gated workload stays the same. The engine prices the two-word
	// keys at rows × (8W + 64) = rows × 80 bytes, which the budget splits
	// into six runs.
	footprint := int64(d.NumRows()) * int64(2*d.NumAttrs()+64)
	return d, footprint / 6
}

func BenchmarkSpillGroupBy(b *testing.B) {
	d, budget := spillBenchSetup(b)
	full := lattice.FullSet(d.NumAttrs())
	b.Run("inmemory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = must(core.BuildPC(d, full, core.CountOptions{Workers: 1}))
		}
	})
	b.Run("spill", func(b *testing.B) {
		var stats core.ScanStats
		for i := 0; i < b.N; i++ {
			pc := must(core.BuildPC(d, full, core.CountOptions{Workers: 1, MemBudget: budget, Stats: &stats}))
			pc.ReleaseSpill() // merge-on-read result: drop the retained runs
		}
		if stats.Spilled != int64(b.N) {
			b.Fatalf("spilled %d of %d builds", stats.Spilled, b.N)
		}
		b.ReportMetric(float64(stats.SpillRuns)/float64(b.N), "runs/op")
	})
	b.Run("spill-size", func(b *testing.B) {
		var stats core.ScanStats
		opts := core.CountOptions{Workers: 1, MemBudget: budget, Stats: &stats}
		for i := 0; i < b.N; i++ {
			if _, within := must2(core.LabelSize(d, full, -1, opts)); !within {
				b.Fatal("unbounded sizing reported out of bound")
			}
		}
		if stats.Spilled != int64(b.N) {
			b.Fatalf("spilled %d of %d sizings", stats.Spilled, b.N)
		}
	})
	// The uint64 record format's partition and count phases: the
	// 40^8-key set fits uint64 but no dense slab.
	b.Run("spill-u64", func(b *testing.B) {
		u64SpillOnce.Do(func() { u64SpillData = wideDataset(60000, 8, 40) })
		du := u64SpillData
		fullU := lattice.FullSet(du.NumAttrs())
		var stats core.ScanStats
		opts := core.CountOptions{Workers: 1, MemBudget: spillBudgetU64(du, 6), Stats: &stats}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pc := must(core.BuildPC(du, fullU, opts))
			pc.ReleaseSpill()
		}
		if stats.Spilled != int64(b.N) {
			b.Fatalf("spilled %d of %d uint64 builds", stats.Spilled, b.N)
		}
		b.ReportMetric(float64(stats.SpillRuns)/float64(b.N), "runs/op")
	})
}

// BenchmarkWideRepeatedKeys is the spill gates' two-word group-by over
// rows that repeat 300 tuples, in memory and under the gates' budget,
// which partitions the rows into runs and counts each run by sorting it:
// here nearly every row is a key already counted, where the gates' rows
// are nearly all distinct and every row is a new key. The hot arm builds,
// under the same budget, rows where one tuple holds 90% of the rows and
// the rest are distinct: a shard flushes the hot key once per flush,
// summed, so its run holds a few dozen entries of it, not 54,000.
func BenchmarkWideRepeatedKeys(b *testing.B) {
	d := cycledWideDataset(60000, 12, 40, 300)
	hot := hotWideDataset(60000, 12, 40)
	_, budget := spillBenchSetup(b)
	full := lattice.FullSet(d.NumAttrs())
	b.Run("inmemory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = must(core.BuildPC(d, full, core.CountOptions{Workers: 1}))
		}
	})
	spilled := func(b *testing.B, d *dataset.Dataset) {
		var stats core.ScanStats
		for i := 0; i < b.N; i++ {
			pc := must(core.BuildPC(d, full, core.CountOptions{Workers: 1, MemBudget: budget, Stats: &stats}))
			pc.ReleaseSpill()
		}
		if stats.Spilled != int64(b.N) {
			b.Fatalf("spilled %d of %d builds", stats.Spilled, b.N)
		}
	}
	b.Run("spill", func(b *testing.B) { spilled(b, d) })
	b.Run("hot", func(b *testing.B) { spilled(b, hot) })
}

// BenchmarkSpillSizeWorkers sweeps the counting workers over a spilled
// frontier sizing (core.LabelSizes routes the over-budget byte-key
// set onto an external spill scan): the partition phase shards rows and
// the count phase splits the key-disjoint runs K-way, so on a multi-core
// runner the sizing wall clock scales with workers like the in-memory
// kernels do. Recorded in BENCH_pr5.json (note the runner CPU count).
func BenchmarkSpillSizeWorkers(b *testing.B) {
	d, budget := spillBenchSetup(b)
	sets := []lattice.AttrSet{lattice.FullSet(d.NumAttrs())}
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var stats core.ScanStats
			opts := core.CountOptions{Workers: workers, MemBudget: budget, Stats: &stats}
			for i := 0; i < b.N; i++ {
				sizes, within := must2(core.LabelSizes(d, sets, -1, opts))
				if !within[0] || sizes[0] == 0 {
					b.Fatal("unbounded spilled sizing failed")
				}
			}
			if stats.Spilled != int64(b.N) {
				b.Fatalf("spilled %d of %d sizings", stats.Spilled, b.N)
			}
			b.ReportMetric(float64(stats.SpillRuns)/float64(b.N), "runs/op")
		})
	}
}

// BenchmarkSpillRecordFormat compares spilled sizing throughput of the two
// key widths at equal row count: two-word keys (the key space overflows 63
// bits) vs one-word keys, each run counted by sorting it. MB/s is key
// bytes, 8 per key word, through the partition+count pipeline.
func BenchmarkSpillRecordFormat(b *testing.B) {
	d, budget := spillBenchSetup(b)
	u64SpillOnce.Do(func() { u64SpillData = wideDataset(60000, 8, 40) })
	du := u64SpillData
	budgetU := spillBudgetU64(du, 6)
	run := func(b *testing.B, d *dataset.Dataset, budget int64) {
		full := lattice.FullSet(d.NumAttrs())
		var stats core.ScanStats
		opts := core.CountOptions{Workers: 1, MemBudget: budget, Stats: &stats}
		b.SetBytes(int64(d.NumRows() * 8 * core.NewKeyer(d, full).Words()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, within := must2(core.LabelSize(d, full, -1, opts)); !within {
				b.Fatal("unbounded sizing reported out of bound")
			}
		}
		if stats.Spilled != int64(b.N) {
			b.Fatalf("Spilled=%d over %d ops", stats.Spilled, b.N)
		}
	}
	b.Run("bytes", func(b *testing.B) { run(b, d, budget) })
	b.Run("u64", func(b *testing.B) { run(b, du, budgetU) })
}

// spillBudgetU64 mirrors the engine's uint64-map footprint model
// (distinct-bound × (8 record bytes + 48 map-entry bytes)) and returns a
// budget forcing >= minRuns runs.
func spillBudgetU64(d *dataset.Dataset, minRuns int) int64 {
	return int64(d.NumRows())*(8+48)/int64(minRuns) - 1
}

// appendIDRecord appends row r's value ids, two bytes each, as one
// fixed-width record; ok is false for a row holding NULL.
func appendIDRecord(dst []byte, cols [][]uint16, r int) ([]byte, bool) {
	for _, col := range cols {
		if col[r] == dataset.Null {
			return dst, false
		}
		dst = append(dst, byte(col[r]), byte(col[r]>>8))
	}
	return dst, true
}

// appendIDKey appends the words of row r's appendIDRecord record, read
// little-endian, four value ids a word; ok is false for a row holding
// NULL. The spill tier routes a key by its words little-endian, so the
// key routes as the record's bytes would.
func appendIDKey(dst []uint64, cols [][]uint16, r int) ([]uint64, bool) {
	var word uint64
	for i, col := range cols {
		if col[r] == dataset.Null {
			return dst, false
		}
		word |= uint64(col[r]) << (16 * (i % 4))
		if i%4 == 3 || i == len(cols)-1 {
			dst = append(dst, word)
			word = 0
		}
	}
	return dst, true
}

// BenchmarkSpillLiveHeap drives the spill writer directly so it can force
// a GC at the peak moment — each run's entries counted and still live —
// and report real live-heap bytes. The in-memory variant holds the whole
// distinct-key map at its peak (rows×keys-bound); the spill variant's peak
// must track the budget instead. The spill variants add three-word keys
// packed from the 24 bytes of value ids of the in-memory variant's
// records (appendIDKey).
func BenchmarkSpillLiveHeap(b *testing.B) {
	d, budget := spillBenchSetup(b)
	cols := make([][]uint16, d.NumAttrs())
	for i := range cols {
		cols[i] = d.Col(i)
	}
	rows := d.NumRows()
	const words = 3
	if (d.NumAttrs()+3)/4 != words {
		b.Fatalf("%d attributes pack into %d words, want %d", d.NumAttrs(), (d.NumAttrs()+3)/4, words)
	}
	// partition writes every row's key into runs on-disk runs.
	partition := func(runs int) *spill.Writer {
		w, err := spill.NewWriter(spill.Config{Words: words, Runs: runs})
		if err != nil {
			b.Fatal(err)
		}
		sw := w.Shard()
		var key []uint64
		for r := 0; r < rows; r++ {
			k, ok := appendIDKey(key[:0], cols, r)
			key = k
			if ok {
				sw.Add(k, 1)
			}
		}
		if err := sw.Close(); err != nil {
			w.Cleanup()
			b.Fatal(err)
		}
		return w
	}
	baseline := liveHeap()
	b.Run("inmemory", func(b *testing.B) {
		var peak uint64
		for i := 0; i < b.N; i++ {
			m := make(map[string]int)
			var buf []byte
			for r := 0; r < rows; r++ {
				rec, ok := appendIDRecord(buf[:0], cols, r)
				buf = rec
				if ok {
					m[string(rec)]++
				}
			}
			peak = max(peak, liveHeap())
			if len(m) == 0 {
				b.Fatal("empty group-by")
			}
		}
		b.ReportMetric(float64(peak-baseline), "live-heap-B")
	})
	b.Run("spill", func(b *testing.B) {
		var peak uint64
		for i := 0; i < b.N; i++ {
			w := partition(6)
			size := 0
			err := w.CountRunsCtx(nil, 1, func(_ int, _ []uint64, counts []int32) bool {
				size += len(counts)
				peak = max(peak, liveHeap())
				return true
			})
			w.Cleanup()
			if err != nil || size == 0 {
				b.Fatalf("spill count: size=%d err=%v", size, err)
			}
		}
		b.ReportMetric(float64(peak-baseline), "live-heap-B")
		b.ReportMetric(float64(budget), "budget-B")
	})
	// The build variants measure why a spilled result stays on disk: a
	// *materialized* spilled build (every run's entries merged into one
	// result map) holds the whole distinct-key space live at its peak,
	// blowing the budget the scan respected; the merge-on-read build keeps
	// the result on disk and its peak — the partial merge dropped at the
	// budget crossing plus one run's entries — stays within ~2x the budget.
	b.Run("build-materialized", func(b *testing.B) {
		var peak uint64
		for i := 0; i < b.N; i++ {
			w := partition(6)
			merged := make(map[[words]uint64]int)
			err := w.CountRunsCtx(nil, 1, func(_ int, keys []uint64, counts []int32) bool {
				for j, c := range counts {
					merged[[words]uint64(keys[j*words:])] = int(c)
				}
				return true
			})
			if err != nil {
				w.Cleanup()
				b.Fatal(err)
			}
			peak = max(peak, liveHeap()) // merged result map fully live
			runtime.KeepAlive(merged)
			w.Cleanup()
		}
		b.ReportMetric(float64(peak-baseline), "live-heap-B")
		b.ReportMetric(float64(budget), "budget-B")
	})
	b.Run("build-mergeonread", func(b *testing.B) {
		full := lattice.FullSet(d.NumAttrs())
		probe := pcProbeVals(d)
		var peak uint64
		for i := 0; i < b.N; i++ {
			pc := must(core.BuildPC(d, full, core.CountOptions{Workers: 1, MemBudget: budget}))
			if !pc.Spilled() {
				b.Fatal("build did not stay merge-on-read")
			}
			peak = max(peak, liveHeap()) // result live, runs on disk
			for _, vals := range probe {
				_ = must(pc.LookupValsCtx(nil, vals)) // fault in the pinned hot-run cache
			}
			peak = max(peak, liveHeap())
			pc.ReleaseSpill()
		}
		b.ReportMetric(float64(peak-baseline), "live-heap-B")
		b.ReportMetric(float64(budget), "budget-B")
	})
}

// pcProbeVals samples a few rows of the dataset as lookup probes.
func pcProbeVals(d *dataset.Dataset) [][]uint16 {
	step := d.NumRows() / 32
	if step == 0 {
		step = 1
	}
	var probes [][]uint16
	for r := 0; r < d.NumRows(); r += step {
		vals := make([]uint16, d.NumAttrs())
		for a := range vals {
			vals[a] = d.Col(a)[r]
		}
		probes = append(probes, vals)
	}
	return probes
}

// liveHeap forces a collection and returns the surviving heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// --- Concurrent spilled reads and the serve daemon (PR 6) -----------------
//
// Recorded baselines live in BENCH_pr6.json. The read-path claim is about
// concurrency, not single-thread speed: pinned hot runs are served from an
// immutable snapshot with no lock at all, so lookup throughput should scale
// with reader count on a multi-core runner. On a single visible CPU the
// readers=N sweep measures only the coordination overhead (the goroutines
// time-slice); re-record on a multi-core machine before reading it as a
// scaling result.

var lookupBenchOnce sync.Once
var lookupBench struct {
	pc     *core.PC
	probes [][]uint16
}
var lookupSink atomic.Int64

func lookupBenchSetup(b *testing.B) {
	b.Helper()
	lookupBenchOnce.Do(func() {
		u64SpillOnce.Do(func() { u64SpillData = wideDataset(60000, 8, 40) })
		d := u64SpillData
		full := lattice.FullSet(d.NumAttrs())
		oracle := must(core.BuildPC(d, full, core.CountOptions{Workers: 1}))
		// Budget one byte under the result's modeled uint64-map footprint:
		// the build stays merge-on-read while the read side can pin (nearly)
		// every run into the lock-free hot cache.
		budget := int64(oracle.Size())*(8+48) - 1
		pc := must(core.BuildPC(d, full, core.CountOptions{Workers: 1, MemBudget: budget}))
		if !pc.Spilled() {
			panic("lookup benchmark build did not stay merge-on-read")
		}
		probes := pcProbeVals(d)
		for _, vals := range probes {
			_ = must(pc.LookupValsCtx(nil, vals)) // fault the probed runs into the hot cache
		}
		lookupBench.pc, lookupBench.probes = pc, probes
	})
}

// BenchmarkSpilledPCLookup sweeps concurrent readers over a merge-on-read
// PC whose runs are pinned: every lookup takes the lock-free hot-snapshot
// path. hot-frac reports the fraction of spilled reads served by it.
func BenchmarkSpilledPCLookup(b *testing.B) {
	lookupBenchSetup(b)
	pc, probes := lookupBench.pc, lookupBench.probes
	for _, readers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			before, _ := pc.SpillReadStats()
			b.SetParallelism(readers)
			b.RunParallel(func(pb *testing.PB) {
				var total, i int
				for pb.Next() {
					total += must(pc.LookupValsCtx(nil, probes[i%len(probes)]))
					i++
				}
				lookupSink.Add(int64(total))
			})
			after, _ := pc.SpillReadStats()
			reads := (after.HotHits + after.FloatingHits + after.RunLoads) -
				(before.HotHits + before.FloatingHits + before.RunLoads)
			if reads > 0 {
				b.ReportMetric(float64(after.HotHits-before.HotHits)/float64(reads), "hot-frac")
			}
		})
	}
}

// BenchmarkSpilledMerge is one update of the hicard-spill shape through
// the library: reopen a 200,000 × 4 × domain-200 label saved under a 4 MiB
// budget, which keeps its PC section on disk in six runs, fold a delta of
// 1% more rows into it with Label.Merge, and release it. The merged runs
// are written under a scratch directory. bytes/op is gated: a merge that
// re-counts every run into a map allocates several times what one linear
// merge per run does.
func BenchmarkSpilledMerge(b *testing.B) {
	const rows, deltaRows = 200000, 2000
	vals := make([]string, 200)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%03d", i)
	}
	spec := datagen.Spec{Name: "hicard"}
	for c := 0; c < 4; c++ {
		spec.Cols = append(spec.Cols, datagen.Col{Name: fmt.Sprintf("c%d", c), Values: vals})
	}
	d := must(spec.Generate(rows+deltaRows, 1))
	base, delta := must(d.Slice(0, rows)), must(d.Slice(rows, rows+deltaRows))
	full := lattice.FullSet(4)
	l := must(core.BuildLabel(base, full, core.CountOptions{Workers: 2, MemBudget: 4 << 20, SpillDir: b.TempDir()}))
	dir := filepath.Join(b.TempDir(), "artifact")
	if err := SaveLabelArtifact(l, dir); err != nil {
		b.Fatal(err)
	}
	l.ReleaseSpill()
	dl := must(core.BuildLabel(delta, full, core.CountOptions{Workers: 2}))
	spillDir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ol, _, err := OpenLabelArtifact(dir)
		if err != nil {
			b.Fatal(err)
		}
		if !ol.PC().Spilled() {
			b.Fatal("the reopened label is not merge-on-read")
		}
		ol.SetCountOptions(core.CountOptions{Workers: 2, SpillDir: spillDir})
		if _, _, err := ol.Merge(dl, -1); err != nil {
			b.Fatal(err)
		}
		ol.ReleaseSpill()
	}
}

var serveBenchOnce sync.Once
var serveBench struct {
	ts   *httptest.Server
	urls []string
}

// benchServeDataset builds the serve workload: u64-keyable shape whose
// full-set group-by spills under a 16 KiB budget (the serve-test shape).
func benchServeDataset(rows, attrs, domain int) *dataset.Dataset {
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	bld := dataset.NewBuilder("servebench", names...)
	v := uint64(88172645463325252)
	row := make([]string, attrs)
	for r := 0; r < rows; r++ {
		for i := range row {
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			row[i] = fmt.Sprintf("v%d", v%uint64(domain))
		}
		bld.AppendStrings(row...)
	}
	d, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return d
}

func serveBenchSetup(b *testing.B) {
	b.Helper()
	serveBenchOnce.Do(func() {
		d := benchServeDataset(4000, 4, 300)
		l := must(core.BuildLabel(d, lattice.FullSet(d.NumAttrs()), core.CountOptions{MemBudget: 16 << 10}))
		if !l.PC().Spilled() {
			panic("serve benchmark label did not spill")
		}
		tmp, err := os.MkdirTemp("", "pcbl-serve-bench-")
		if err != nil {
			panic(err)
		}
		dir := filepath.Join(tmp, "artifact")
		if err := SaveLabelArtifact(l, dir); err != nil {
			panic(err)
		}
		l.ReleaseSpill()
		rl, _, err := OpenLabelArtifact(dir)
		if err != nil {
			panic(err)
		}
		serveBench.ts = httptest.NewServer(serve.NewHandler(rl))
		step := d.NumRows() / 64
		for r := 0; r < d.NumRows(); r += step {
			var parts []string
			for a := 0; a < d.NumAttrs(); a++ {
				parts = append(parts, fmt.Sprintf("%s=%s", d.Attr(a).Name(), d.Value(r, a)))
			}
			serveBench.urls = append(serveBench.urls,
				serveBench.ts.URL+"/v1/count?q="+url.QueryEscape(strings.Join(parts, ",")))
		}
		// Warm every probed run into the hot cache so the measured requests
		// exercise the steady-state (lock-free) read path.
		warm := serveBench.ts.Client()
		for _, u := range serveBench.urls {
			resp, err := warm.Get(u)
			if err != nil {
				panic(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

// BenchmarkServeQPS measures end-to-end request latency of the query daemon
// over a reopened spilled artifact: keep-alive HTTP clients hitting
// /v1/count with full-set patterns. ns/op is the inverse of aggregate QPS;
// p50-ns/p99-ns report the per-request latency distribution, so a
// serve-path regression that only fattens the tail (lock contention, a
// slow run reload) is visible even when the mean holds.
func BenchmarkServeQPS(b *testing.B) {
	serveBenchSetup(b)
	urls := serveBench.urls
	for _, clients := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			client := &http.Client{Transport: &http.Transport{
				MaxIdleConns: 4 * clients, MaxIdleConnsPerHost: 4 * clients,
			}}
			defer client.CloseIdleConnections()
			var fails atomic.Int64
			var latMu sync.Mutex
			var lats []time.Duration
			b.SetParallelism(clients)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				local := make([]time.Duration, 0, 1024)
				for pb.Next() {
					start := time.Now()
					resp, err := client.Get(urls[i%len(urls)])
					i++
					if err != nil {
						fails.Add(1)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						fails.Add(1)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					local = append(local, time.Since(start))
				}
				latMu.Lock()
				lats = append(lats, local...)
				latMu.Unlock()
			})
			b.StopTimer()
			if fails.Load() > 0 {
				b.Fatalf("%d of %d requests failed", fails.Load(), b.N)
			}
			if len(lats) > 0 {
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				quantile := func(q float64) float64 {
					idx := int(q * float64(len(lats)-1))
					return float64(lats[idx])
				}
				b.ReportMetric(quantile(0.50), "p50-ns")
				b.ReportMetric(quantile(0.99), "p99-ns")
			}
		})
	}
}

// --- Ablations (design choices called out in DESIGN.md) -------------------

// Sorted early-termination evaluation (§IV-C) vs exact scan.
func BenchmarkAblation_EvalMode_Exact(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	s, _ := lattice.FromNames(d.AttrNames(), "cut", "polish")
	l := must(core.BuildLabel(d, s, core.CountOptions{Workers: 1}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = core.MaxAbsError(l, ps, core.MaxErrOptions{Workers: 1})
	}
}

func BenchmarkAblation_EvalMode_SortedEarlyStop(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	ps.SortByCountDesc()
	s, _ := lattice.FromNames(d.AttrNames(), "cut", "polish")
	l := must(core.BuildLabel(d, s, core.CountOptions{Workers: 1}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = core.MaxAbsError(l, ps, core.MaxErrOptions{Sorted: true})
	}
}

// One-word keys vs keys of more than one word for group-by.
func BenchmarkAblation_Key_Uint64(b *testing.B) {
	benchSetup(b)
	d := benchData.compas // full-width keys fit in uint64
	full := lattice.FullSet(d.NumAttrs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(core.BuildPC(d, full, core.CountOptions{Workers: 1}))
	}
}

func BenchmarkAblation_Key_Bytes(b *testing.B) {
	benchSetup(b)
	d := benchData.wide // 32^16 overflows 63 bits: two-word keys
	full := lattice.FullSet(d.NumAttrs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(core.BuildPC(d, full, core.CountOptions{Workers: 1}))
	}
}

// Parallel vs sequential candidate evaluation.
func BenchmarkAblation_Parallel_Workers1(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	s, _ := lattice.FromNames(d.AttrNames(), "cut", "polish")
	l := must(core.BuildLabel(d, s, core.CountOptions{Workers: 1}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Evaluate(l, ps, core.EvalOptions{Workers: 1})
	}
}

func BenchmarkAblation_Parallel_WorkersMax(b *testing.B) {
	benchSetup(b)
	d := benchData.bluenile
	ps := benchData.psBlueNile
	s, _ := lattice.FromNames(d.AttrNames(), "cut", "polish")
	l := must(core.BuildLabel(d, s, core.CountOptions{Workers: 1}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Evaluate(l, ps, core.EvalOptions{})
	}
}

// Label-size early abort at the bound vs full distinct count.
func BenchmarkAblation_SizeAbort_On(b *testing.B) {
	benchSetup(b)
	d := benchData.creditcard
	s := lattice.NewAttrSet(0, 1, 2, 3, 4, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = must2(core.LabelSize(d, s, 50, core.CountOptions{Workers: 1}))
	}
}

func BenchmarkAblation_SizeAbort_Off(b *testing.B) {
	benchSetup(b)
	d := benchData.creditcard
	s := lattice.NewAttrSet(0, 1, 2, 3, 4, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = must2(core.LabelSize(d, s, -1, core.CountOptions{Workers: 1}))
	}
}

// --- Cancellation overhead (PR 10) ---------------------------------------
//
// The context plumbing's hot-path cost: an unarmed engine (nil Ctx) pays a
// nil compare per block, an armed one a non-blocking channel poll per
// 4096-row block — ~28 polls across this 116300-row build. Recorded
// in BENCH_pr10.json; the acceptance bar is armed ns/op within 2% of nil
// (i.e. inside run-to-run noise on a quiet machine).
func BenchmarkCancellationOverhead(b *testing.B) {
	d := benchPaperScale(b)
	full := lattice.FullSet(d.NumAttrs())
	b.Run("nil", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildPC(d, full, core.CountOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("armed", func(b *testing.B) {
		// WithCancel makes Done() non-nil, so every per-block check takes
		// the polling path; the context never fires during the build.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildPC(d, full, core.CountOptions{Workers: 1, Ctx: ctx}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Incremental maintenance: merge vs rebuild ---------------------------
//
// The headline economics of PR 9: when 1% of the rows are appended, the
// update path reads 1% of the dataset (rows-read/op tracks it) while the
// rebuild reads all of it. Recorded in BENCH_pr9.json.

// benchIncrementalSplit slices the paper-scale dataset into a 99% base and
// a 1% appended suffix.
func benchIncrementalSplit(b *testing.B) (d, base, delta *dataset.Dataset) {
	b.Helper()
	d = benchPaperScale(b)
	cut := d.NumRows() - d.NumRows()/100
	var err error
	if base, err = d.Slice(0, cut); err != nil {
		b.Fatal(err)
	}
	if delta, err = d.Slice(cut, d.NumRows()); err != nil {
		b.Fatal(err)
	}
	return d, base, delta
}

// BenchmarkLabelMerge times only Label.Merge: folding a prebuilt 1% delta
// into a prebuilt base label. Rebuilding the mutated base is untimed.
func BenchmarkLabelMerge(b *testing.B) {
	d, base, delta := benchIncrementalSplit(b)
	s := lattice.FullSet(d.NumAttrs())
	dl := must(core.BuildLabel(delta, s, core.CountOptions{Workers: 1}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bl := must(core.BuildLabel(base, s, core.CountOptions{Workers: 1}))
		b.StartTimer()
		if _, _, err := bl.Merge(dl, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateVsRebuild compares the two ways to refresh a label after
// a 1% append: counting just the suffix and merging, vs rebuilding over
// every row. rows-read/op is ScanStats.RowsScanned — the update's stays at
// the delta size regardless of history length.
func BenchmarkUpdateVsRebuild(b *testing.B) {
	d, base, delta := benchIncrementalSplit(b)
	s := lattice.FullSet(d.NumAttrs())
	b.Run("rebuild", func(b *testing.B) {
		var st core.ScanStats
		for i := 0; i < b.N; i++ {
			_ = must(core.BuildLabel(d, s, core.CountOptions{Workers: 1, Stats: &st}))
		}
		b.ReportMetric(float64(st.RowsScanned)/float64(b.N), "rows-read/op")
	})
	b.Run("update-1pct", func(b *testing.B) {
		var st core.ScanStats
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bl := must(core.BuildLabel(base, s, core.CountOptions{Workers: 1}))
			b.StartTimer()
			dl := must(core.BuildLabel(delta, s, core.CountOptions{Workers: 1, Stats: &st}))
			if _, _, err := bl.Merge(dl, -1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.RowsScanned)/float64(b.N), "rows-read/op")
	})
}

// BenchmarkIngest times the dataset layer's four passes over every cell:
// reading a CSV, reading the appended 1% of a grown one, writing one, and
// bucketizing numeric columns. The inputs are a 20,000-row BlueNile CSV
// held in memory and a 30,000 × 24 table shaped like the Credit Card
// emulator's raw columns (20 numeric, about 220,000 distinct values in
// all, and 4 categorical). It uses only APIs older than the byte-level
// scanner, so the same file runs on either side of it; bytes/op is gated.
// A read holds GOMAXPROCS blocks at once, so GOMAXPROCS is pinned at 2:
// bytes/op then does not depend on the runner's CPU count.
func BenchmarkIngest(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	bn := must(datagen.BlueNile(20000, 1))
	var buf strings.Builder
	if err := dataset.WriteCSV(&buf, bn); err != nil {
		b.Fatal(err)
	}
	text := buf.String()
	skip := bn.NumRows() - bn.NumRows()/100
	base := bn.Head(skip)

	names := make([]string, 24)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	bld := dataset.NewBuilder("raw", names...)
	v := uint64(88172645463325252)
	row := make([]string, len(names))
	for r := 0; r < 30000; r++ {
		for i := range row {
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			if i < 4 {
				row[i] = fmt.Sprintf("c%d", v%4)
			} else {
				row[i] = fmt.Sprint(v % 11000)
			}
		}
		bld.AppendStrings(row...)
	}
	raw := must(bld.Build())

	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = must(dataset.ReadCSV(strings.NewReader(text), dataset.CSVOptions{}))
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = must(dataset.ReadCSVAppend(strings.NewReader(text), base, dataset.CSVOptions{SkipRows: skip}))
		}
	})
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dataset.WriteCSV(io.Discard, bn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bucketize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = must(dataset.BucketizeAllNumeric(raw, dataset.BucketizeOptions{Bins: 5, Strategy: dataset.EqualFrequency}))
		}
	})
}
