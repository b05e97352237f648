package core

// Differential-testing harness for the sharded counting engine: randomized
// datasets across sizes, domain widths, NULL rates and key encodings, each
// checked with worker counts 1, 2 and 8 against the sequential
// implementations in count.go. The parallel paths must be bit-identical —
// same pattern→count maps, same label sizes, same cap-abort outcomes — for
// every configuration.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// diffConfig describes one randomized dataset shape.
type diffConfig struct {
	rows     int
	attrs    int
	domain   int     // per-attribute domain size
	nullRate float64 // probability of NULL per cell
	cycle    int     // when > 0, the rows repeat with this period
}

func (c diffConfig) name() string {
	name := fmt.Sprintf("rows=%d_attrs=%d_dom=%d_null=%.2f", c.rows, c.attrs, c.domain, c.nullRate)
	if c.cycle > 0 {
		name += fmt.Sprintf("_cycle=%d", c.cycle)
	}
	return name
}

// diffConfigs spans the shapes the engine must handle: empty and tiny
// datasets, mid-size ones, NULL-free and NULL-heavy data, narrow domains
// (many duplicate patterns) and the 65000-value domains whose mixed-radix
// key passes one uint64 word, once with every row distinct, once with
// 150 tuples repeated across the worker shards and once with no rows.
var diffConfigs = []diffConfig{
	{rows: 0, attrs: 3, domain: 4, nullRate: 0},
	{rows: 1, attrs: 3, domain: 4, nullRate: 0},
	{rows: 97, attrs: 4, domain: 3, nullRate: 0},
	{rows: 500, attrs: 5, domain: 6, nullRate: 0.1},
	{rows: 500, attrs: 5, domain: 6, nullRate: 0.5},
	{rows: 3000, attrs: 6, domain: 8, nullRate: 0.05},
	{rows: 3000, attrs: 4, domain: 65000, nullRate: 0.1}, // 65000^4 > 2^63: two-word keys
	{rows: 1000, attrs: 8, domain: 2, nullRate: 0.02},
	{rows: 3000, attrs: 4, domain: 65000, nullRate: 0.1, cycle: 150},
	{rows: 0, attrs: 4, domain: 65000, nullRate: 0},
}

var diffWorkerCounts = []int{1, 2, 8}

// diffDataset generates a random dataset for a config, deterministically
// from the seed.
func diffDataset(t *testing.T, cfg diffConfig, seed uint64) *dataset.Dataset {
	t.Helper()
	names := make([]string, cfg.attrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	bld := dataset.NewBuilder(cfg.name(), names...)
	// Fix the full domain up front so DomainSize (and hence whether the
	// mixed-radix key fits) does not depend on which values the rows
	// happen to draw.
	for a := 0; a < cfg.attrs; a++ {
		for v := 0; v < cfg.domain; v++ {
			if _, err := bld.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xD1FF))
	ids := make([]uint16, cfg.attrs)
	for r := 0; r < cfg.rows; r++ {
		if cfg.cycle > 0 && r%cfg.cycle == 0 {
			rng = rand.New(rand.NewPCG(seed, 0xD1FF))
		}
		for a := range ids {
			if cfg.nullRate > 0 && rng.Float64() < cfg.nullRate {
				ids[a] = dataset.Null
			} else {
				ids[a] = uint16(1 + rng.IntN(cfg.domain))
			}
		}
		bld.AppendIDs(ids...)
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// diffAttrSets returns the attribute sets to probe: the empty set, every
// singleton, the full set, and a few random subsets.
func diffAttrSets(n int, rng *rand.Rand) []lattice.AttrSet {
	sets := []lattice.AttrSet{0, lattice.FullSet(n)}
	for i := 0; i < n; i++ {
		sets = append(sets, lattice.NewAttrSet(i))
	}
	for len(sets) < n+6 {
		var s lattice.AttrSet
		for i := 0; i < n; i++ {
			if rng.IntN(2) == 1 {
				s = s.Add(i)
			}
		}
		sets = append(sets, s)
	}
	return sets
}

// testCountOptions forces the sharded paths regardless of dataset size; the
// production threshold would route these small datasets to the sequential
// fallback and leave the parallel code untested.
func testCountOptions(workers int) CountOptions {
	return CountOptions{Workers: workers, minRowsPerWorker: 1}
}

// pcRepr names the storage representation a PC landed on.
func pcRepr(pc *PC) string {
	switch {
	case pc.sp != nil:
		return "spilled"
	case pc.dz != nil:
		return "dense"
	case pc.u.W > 1:
		return "wide"
	default:
		return "sorted"
	}
}

// pcDump flattens a PC into pattern→count form via Each, independent of
// the storage representation.
func pcDump(pc *PC) map[string]int {
	out := make(map[string]int)
	noErr(pc.EachCtx(nil, lattice.MaxAttrs, func(vals []uint16, c int) bool {
		var key strings.Builder
		for _, a := range pc.Attrs().Members() {
			fmt.Fprintf(&key, "%d=%d;", a, vals[a])
		}
		out[key.String()] = c
		return true
	}))
	return out
}

// pcEqual asserts two pattern-count indexes hold identical contents on the
// same storage representation (the kernel selection rules are
// deterministic, so sequential and parallel builds must agree on it).
func pcEqual(t *testing.T, want, got *PC) {
	t.Helper()
	if wr, gr := pcRepr(want), pcRepr(got); wr != gr {
		t.Fatalf("representation mismatch: sequential %s, parallel %s", wr, gr)
	}
	wd, gd := pcDump(want), pcDump(got)
	if len(wd) != len(gd) {
		t.Fatalf("pattern count mismatch: sequential %d, parallel %d", len(wd), len(gd))
	}
	for key, c := range wd {
		if gd[key] != c {
			t.Fatalf("pattern %q: sequential count %d, parallel %d", key, c, gd[key])
		}
	}
}

func TestDifferentialBuildPCParallel(t *testing.T) {
	for ci, cfg := range diffConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0xBEEF))
			for _, s := range diffAttrSets(cfg.attrs, rng) {
				want := must(BuildPC(d, s, CountOptions{Workers: 1}))
				for _, workers := range diffWorkerCounts {
					got := must(BuildPC(d, s, testCountOptions(workers)))
					pcEqual(t, want, got)
					if got.Size() != want.Size() {
						t.Fatalf("set %v workers=%d: Size %d, want %d", s, workers, got.Size(), want.Size())
					}
				}
			}
		})
	}
}

// sizingConfigs are the dataset shapes of the sizing harness: diffConfigs,
// plus a 65000-value table whose 4-sets pass one key word from a one-word
// parent and whose 5-set passes it from a two-word parent,
// and a table long enough that a scan spans several row blocks, both at
// NULL rate 0.3.
var sizingConfigs = append(diffConfigs[:len(diffConfigs):len(diffConfigs)],
	diffConfig{rows: 2000, attrs: 5, domain: 65000, nullRate: 0.3},
	diffConfig{rows: 9000, attrs: 5, domain: 12, nullRate: 0.3},
)

// sizingFrontier is one frontier the harness sizes. budget sends its sets
// beyond the dense tier to the spill tier (sizingBudget); single sizes its
// one set through LabelSize instead of LabelSizes.
type sizingFrontier struct {
	name   string
	sets   []lattice.AttrSet
	budget bool
	single bool
}

// sizingBudget is the harness's MemBudget: under the uint64 and byte map
// footprints of a 2000-row set beyond the dense tier, so uncapped those
// spill in a few runs each.
const sizingBudget = 100 << 10

// allNullDataset has an attribute whose every value is NULL: its domain is
// empty, so a child adding it has a zero-slot key space, and a parent
// holding it has no groups.
func allNullDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	bld := dataset.NewBuilder("nulls", "a", "b", "c")
	for i := 0; i < 200; i++ {
		bld.AppendStrings(fmt.Sprintf("x%d", i%2), "", fmt.Sprintf("y%d", i%3))
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d.Attr(1).DomainSize() != 0 {
		t.Fatalf("attribute b has domain %d, want 0", d.Attr(1).DomainSize())
	}
	return d
}

// runSizingHarness is the one differential harness for sizing: on every
// sizingConfigs shape and on a table with an all-NULL attribute, it checks
// each frontier that frontiers builds with checkSizing. The differential
// sizing tests below drive it with one frontier kind each.
func runSizingHarness(t *testing.T, frontiers func(n int, rng *rand.Rand) []sizingFrontier) {
	for ci, cfg := range sizingConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d := diffDataset(t, cfg, uint64(ci)+1)
			rng := rand.New(rand.NewPCG(uint64(ci), 0x512E))
			for _, f := range frontiers(cfg.attrs, rng) {
				checkSizing(t, d, f)
			}
		})
	}
	t.Run("all-null", func(t *testing.T) {
		d := allNullDataset(t)
		rng := rand.New(rand.NewPCG(uint64(len(sizingConfigs)), 0x512E))
		for _, f := range frontiers(d.NumAttrs(), rng) {
			checkSizing(t, d, f)
		}
	})
}

// checkSizing sizes one frontier at every cap around its largest size,
// dense limit (default, small, disabled), worker count and ctx (nil, or
// armed and never fired). Every set must get exactly the sequential
// labelSize oracle's (size, within), and the Dense/Map/Wide kernel
// counters must be the same for every worker count and ctx. A budgeted
// frontier must leave no spill files behind; uncapped on tables of 2000
// rows or more it must spill some set, and capped at 0 or 1 none, since
// no set can then reach more than two keys.
func checkSizing(t *testing.T, d *dataset.Dataset, f sizingFrontier) {
	t.Helper()
	armed, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := NewVecPool(0)
	var dir string
	if f.budget {
		dir = t.TempDir()
	}
	maxSize := 0
	for _, s := range f.sets {
		n, _ := labelSize(d, s, -1)
		maxSize = max(maxSize, n)
	}
	for _, cap := range []int{-1, 0, 1, maxSize / 2, maxSize - 1, maxSize, maxSize + 1} {
		wantSizes := make([]int, len(f.sets))
		wantWithin := make([]bool, len(f.sets))
		for i, s := range f.sets {
			wantSizes[i], wantWithin[i] = labelSize(d, s, cap)
		}
		for _, denseLimit := range []int{0, 8, -1} {
			var kernels [][3]int
			for _, workers := range []int{1, 2, 4, 8} {
				for _, ctx := range []context.Context{nil, armed} {
					var stats ScanStats
					opts := testCountOptions(workers)
					opts.denseLimitOverride, opts.Ctx, opts.Stats = denseLimit, ctx, &stats
					if workers == 2 {
						opts.Pool = pool // pooled and unpooled slabs
					}
					if f.budget {
						opts.MemBudget, opts.SpillDir = sizingBudget, dir
					}
					var sizes []int
					var within []bool
					if f.single {
						size, in := must2(LabelSize(d, f.sets[0], cap, opts))
						sizes, within = []int{size}, []bool{in}
					} else {
						sizes, within = must2(LabelSizes(d, f.sets, cap, opts))
					}
					if len(sizes) != len(f.sets) || len(within) != len(f.sets) {
						t.Fatalf("%s cap=%d workers=%d: result length %d/%d, want %d",
							f.name, cap, workers, len(sizes), len(within), len(f.sets))
					}
					for i, s := range f.sets {
						if sizes[i] != wantSizes[i] || within[i] != wantWithin[i] {
							t.Fatalf("%s set %v cap=%d dense=%d workers=%d ctx=%v: got (%d, %v), want (%d, %v)",
								f.name, s, cap, denseLimit, workers, ctx != nil, sizes[i], within[i], wantSizes[i], wantWithin[i])
						}
					}
					kernels = append(kernels, [3]int{stats.Dense, stats.Map, stats.Wide})
					if kernels[len(kernels)-1] != kernels[0] {
						t.Fatalf("%s cap=%d dense=%d workers=%d ctx=%v: Dense/Map/Wide %v, workers=1 nil ctx %v",
							f.name, cap, denseLimit, workers, ctx != nil, kernels[len(kernels)-1], kernels[0])
					}
					if f.budget {
						if cap < 0 && d.NumRows() >= 2000 && stats.Spilled == 0 {
							t.Fatalf("%s cap=%d dense=%d workers=%d: no set spilled", f.name, cap, denseLimit, workers)
						}
						if cap >= 0 && cap <= 1 && stats.Spilled != 0 {
							t.Fatalf("%s cap=%d dense=%d workers=%d: %d sets spilled under a two-key cap",
								f.name, cap, denseLimit, workers, stats.Spilled)
						}
						assertNoSpillFiles(t, dir)
					}
				}
			}
		}
	}
}

// siblingFrontiers returns one sibling group per probe set that has gen
// children: the children LabelSizes sizes from one shared parent key
// block.
func siblingFrontiers(n int, rng *rand.Rand) []sizingFrontier {
	var out []sizingFrontier
	for _, p := range diffAttrSets(n, rng) {
		if children := p.Gen(n); len(children) > 0 {
			out = append(out, sizingFrontier{name: fmt.Sprintf("siblings of %v", p), sets: children})
		}
	}
	return out
}

// singleFrontiers returns each probe set on its own, sized through
// LabelSize.
func singleFrontiers(n int, rng *rand.Rand) []sizingFrontier {
	var out []sizingFrontier
	for _, s := range diffAttrSets(n, rng) {
		out = append(out, sizingFrontier{name: fmt.Sprintf("set %v", s), sets: []lattice.AttrSet{s}, single: true})
	}
	return out
}

// mixedFrontiers returns arbitrary frontiers: the probe sets (∅, every
// singleton, the full set and random subsets) in one call, and the full
// set with its parents (two-word keys on wide data).
func mixedFrontiers(n int, rng *rand.Rand) []sizingFrontier {
	full := lattice.FullSet(n)
	return []sizingFrontier{
		{name: "arbitrary", sets: diffAttrSets(n, rng)},
		{name: "bytes", sets: append([]lattice.AttrSet{full}, full.Parents()...)},
	}
}

// levelFrontiers returns the frontiers a search sizes: a TopDown level
// (the children of one gen parent adjacent) and a Naive level in bitmask
// order (siblings scattered).
func levelFrontiers(n int, _ *rand.Rand) []sizingFrontier {
	topdown := lattice.AttrSet(0).Gen(n)
	for level := 2; level <= 3; level++ {
		var next []lattice.AttrSet
		for _, s := range topdown {
			next = append(next, s.Gen(n)...)
		}
		topdown = next
	}
	var naive []lattice.AttrSet
	lattice.Combinations(n, 3, func(s lattice.AttrSet) bool {
		naive = append(naive, s)
		return true
	})
	return []sizingFrontier{{name: "topdown", sets: topdown}, {name: "naive", sets: naive}}
}

// budgetFrontiers returns, under sizingBudget, one frontier mixing sets
// that stay in memory (dense slabs and hash sets) with sets that spill
// when uncapped.
func budgetFrontiers(n int, _ *rand.Rand) []sizingFrontier {
	full := lattice.FullSet(n)
	return []sizingFrontier{
		{name: "over-budget", sets: []lattice.AttrSet{0, full, lattice.NewAttrSet(0), full.Remove(0)}, budget: true},
	}
}

// TestDifferentialRefineSizes sizes sibling groups through the grouped
// kernel.
func TestDifferentialRefineSizes(t *testing.T) { runSizingHarness(t, siblingFrontiers) }

// TestDifferentialLabelSizeParallel sizes single sets: LabelSize is
// LabelSizes of one set.
func TestDifferentialLabelSizeParallel(t *testing.T) { runSizingHarness(t, singleFrontiers) }

// TestDifferentialLabelSizesFused sizes arbitrary frontiers mixing one- and
// two-word-key sets, in-bound and out-of-bound, in one call.
func TestDifferentialLabelSizesFused(t *testing.T) { runSizingHarness(t, mixedFrontiers) }

// TestDifferentialSearchStyleFrontier sizes TopDown and Naive levels.
func TestDifferentialSearchStyleFrontier(t *testing.T) { runSizingHarness(t, levelFrontiers) }

// TestDifferentialFusedDenseVsMap sizes, under a memory budget, a frontier
// whose sets land on dense slabs, hash sets and, uncapped, the budgeted
// build's spill tier.
func TestDifferentialFusedDenseVsMap(t *testing.T) { runSizingHarness(t, budgetFrontiers) }

// TestLabelSizeNotMonotoneWithNulls pins why the search's pruning needs
// NULL-free data: a row NULL in an attribute of S belongs to no pattern
// over S, so adding an attribute can drop rows and shrink the label.
// Here |P_{a,b}| = 6 but |P_{a,b,c}| = 1.
func TestLabelSizeNotMonotoneWithNulls(t *testing.T) {
	bld := dataset.NewBuilder("nulls", "a", "b", "c")
	for i := 0; i < 4; i++ {
		bld.AppendStrings("x0", "y0", "z0")
	}
	for i := 1; i <= 5; i++ {
		bld.AppendStrings(fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i), "")
		bld.AppendStrings(fmt.Sprintf("x%d", i+10), "", fmt.Sprintf("z%d", i))
		bld.AppendStrings("", fmt.Sprintf("y%d", i+10), fmt.Sprintf("z%d", i+10))
	}
	d := must(bld.Build())
	ab, abc := lattice.NewAttrSet(0).Add(1), lattice.FullSet(3)
	for _, tc := range []struct {
		s    lattice.AttrSet
		want int
	}{{ab, 6}, {abc, 1}} {
		if got, _ := labelSize(d, tc.s, -1); got != tc.want {
			t.Fatalf("labelSize(%v) = %d, want %d", tc.s, got, tc.want)
		}
		if got, _ := must2(LabelSize(d, tc.s, -1, CountOptions{Workers: 1})); got != tc.want {
			t.Fatalf("LabelSize(%v) = %d, want %d", tc.s, got, tc.want)
		}
	}
}

// TestLabelSizesFusedEmptyFrontier covers the zero-sets edge: an empty
// frontier sizes to empty results.
func TestLabelSizesFusedEmptyFrontier(t *testing.T) {
	d := diffDataset(t, diffConfigs[2], 7)
	sizes, within := must2(LabelSizes(d, nil, 10, CountOptions{Workers: 4}))
	if len(sizes) != 0 || len(within) != 0 {
		t.Fatalf("got %d/%d results for empty frontier", len(sizes), len(within))
	}
}

// TestBuildPCParallelSequentialFallback pins the threshold behaviour: with
// default options a small dataset must take the sequential path (workers
// resolve to 1), and results must still match.
func TestBuildPCParallelSequentialFallback(t *testing.T) {
	cfg := diffConfigs[2] // 97 rows
	d := diffDataset(t, cfg, 3)
	if w := (CountOptions{Workers: 8}).scanWorkers(d.NumRows()); w != 1 {
		t.Fatalf("scanWorkers(%d) = %d, want 1 (below per-worker minimum)", d.NumRows(), w)
	}
	s := lattice.FullSet(cfg.attrs)
	pcEqual(t, must(BuildPC(d, s, CountOptions{Workers: 1})), must(BuildPC(d, s, CountOptions{Workers: 8})))
}
