package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"pcbl"
)

// traceServe measures the serve and core layers without the network:
// ServeHTTP on a recorder, allocations per query, pattern parsing, direct
// label queries and response encoding, all over the same pool.
func (b *bench) traceServe(closedLat []float64) error {
	h, l := b.front, b.served.cur.Load()
	var byKind [numKinds][]float64
	var all []float64
	// Enough passes for ten samples beyond each kind's p99.
	marginals := 0
	for i := range b.pool {
		if b.pool[i].kind == kindMarginal {
			marginals++
		}
	}
	passes := min(1+1000/max(marginals, 1), 8)
	s := b.tr.begin("serve.handler", "serve", -1)
	for p := 0; p < passes; p++ {
		for i := range b.pool {
			r := &b.pool[i]
			d := us(b.serveInProcess(h, r))
			byKind[r.kind] = append(byKind[r.kind], d)
			all = append(all, d)
		}
	}
	b.tr.end(s)
	sort.Float64s(all)
	b.m["serve.handler_p50_us"] = percentile(all, 0.50)
	b.m["serve.handler_p99_us"] = percentile(all, 0.99)
	for k, name := range []string{"serve.count_p99_us", "serve.estimate_p99_us", "serve.marginal_p99_us"} {
		sort.Float64s(byKind[k])
		b.m[name] = percentile(byKind[k], 0.99)
	}
	sort.Float64s(closedLat)
	b.m["serve.transport_p50_us"] = percentile(closedLat, 0.50) - b.m["serve.handler_p50_us"]

	// Allocations per query, over one in-process pass. A spilled label's
	// cache pins the runs it loads first, and the loops' two callers load
	// them in no fixed order; so the pass runs on the served artifact
	// opened afresh, after one pass in pool order: the count repeats.
	g, err := openGeneration(b.served.dir)
	if err != nil {
		return err
	}
	defer g.cur.Load().ReleaseSpill()
	lo, hi := int(b.servingLo.Load()), int(b.servingHi.Load())
	for i := range b.pool {
		b.serveInProcess(g.h, &b.pool[i])
	}
	reqs := make([]*http.Request, len(b.pool))
	recs := make([]*httptest.ResponseRecorder, len(b.pool))
	for i, r := range b.pool {
		reqs[i] = httptest.NewRequest(http.MethodGet, r.path, nil)
		recs[i] = httptest.NewRecorder()
	}
	mallocs, bytes := countAllocs(func() {
		for i := range reqs {
			g.h.ServeHTTP(recs[i], reqs[i])
		}
	})
	q := float64(len(reqs))
	b.m["runtime.allocs_per_query"] = float64(mallocs) / q
	b.m["runtime.alloc_kb_per_query"] = float64(bytes) / 1024 / q

	// Encoding: every decoded answer marshalled again in one timed pass.
	var answers []any
	for i, rec := range recs {
		r := &b.pool[i]
		if !b.judge(r, rec.Code, rec.Body.Bytes(), lo, hi) {
			continue
		}
		var v any
		switch r.kind {
		case kindCount:
			v = new(countResult)
		case kindEstimate:
			v = new(estimateResult)
		default:
			v = new(marginalResult)
		}
		if json.Unmarshal(rec.Body.Bytes(), v) == nil {
			answers = append(answers, v)
		}
	}
	b.m["serve.encode_us"] = timePass(len(answers), func(i int) { json.Marshal(answers[i]) })

	// The label queries the handler makes, called directly on the
	// generation serving now: one timed pass per kind, checked afterwards.
	e := int(b.servingLo.Load())
	var perKind [numKinds][]*request
	for i := range b.pool {
		perKind[b.pool[i].kind] = append(perKind[b.pool[i].kind], &b.pool[i])
	}
	s = b.tr.begin("core.direct", "serve", -1)
	d := l.Dataset()
	patterned := append(append([]*request(nil), perKind[kindCount]...), perKind[kindEstimate]...)
	nc := len(perKind[kindCount])
	pats := make([]pcbl.Pattern, len(patterned))
	errs := make([]error, len(patterned))
	b.m["serve.parse_us"] = timePass(len(patterned), func(i int) { pats[i], errs[i] = parsePattern(d, patterned[i].expr) })
	counts := make([]int, nc)
	b.m["core.count_us"] = timePass(nc, func(i int) {
		if errs[i] == nil {
			counts[i], errs[i] = countPattern(l, pats[i])
		}
	})
	ests := make([]float64, len(patterned)-nc)
	b.m["core.estimate_us"] = timePass(len(ests), func(i int) {
		if errs[nc+i] == nil {
			ests[i], errs[nc+i] = estimate(l, pats[nc+i])
		}
	})
	margs := perKind[kindMarginal]
	sizes := make([]int, len(margs))
	merrs := make([]error, len(margs))
	b.m["core.marginal_us"] = timePass(len(margs), func(i int) { sizes[i], merrs[i] = marginalSize(l, margs[i].attrs) })
	b.tr.end(s)
	for i, r := range patterned {
		if i < nc {
			b.checkDirect(r, errs[i] == nil && counts[i] == r.want[e])
		} else {
			b.checkDirect(r, errs[i] == nil && ests[i-nc] == r.est[e])
		}
	}
	for i, r := range margs {
		b.checkDirect(r, merrs[i] == nil && sizes[i] == r.set.sizes[e])
	}
	return nil
}

// allocWindow serializes countAllocs: GOMAXPROCS and the GC percent are
// process-wide, and runs in one process (the tests' parallel smoke runs)
// would otherwise restore each other's saved values.
var allocWindow sync.Mutex

// countAllocs returns the heap allocations fn makes, counted with the
// collector off so that pooled buffers stay pooled, and on one P so that a
// pool hit does not depend on where the scheduler ran fn: the count
// repeats. Allocations by other goroutines of the process count too.
func countAllocs(fn func()) (mallocs, bytes uint64) {
	allocWindow.Lock()
	defer allocWindow.Unlock()
	runtime.GC()
	runtime.GC()
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	debug.SetGCPercent(gc)
	runtime.GOMAXPROCS(procs)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// timePass calls fn(0..n-1) and returns the mean µs per call.
func timePass(n int, fn func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return frac(us(time.Since(t)), float64(n))
}

func (b *bench) checkDirect(r *request, ok bool) {
	b.attempted.Add(1)
	if !ok {
		b.wrong.Add(1)
		b.failed.Add(1)
		fmt.Fprintf(b.cfg.log, "pcblbench: %s: wrong direct answer to %s\n", b.w.name, r.path)
	}
}

// probeCore builds the chosen label once more through the counting engine
// with its scan counters attached: the core and spill layers' build
// metrics.
func (b *bench) probeCore() error {
	d, err := readCSV(b.baseCSV)
	if err != nil {
		return err
	}
	var st scanStats
	s := b.tr.begin("core.label_build", "probe", -1)
	t := time.Now()
	l, err := buildLabelStats(d, b.eng, b.attrs, &st)
	b.m["core.label_build_ms"] = ms(time.Since(t))
	b.tr.end(s)
	if err != nil {
		return err
	}
	l.ReleaseSpill()
	b.m["spill.sets"] = float64(st.Spilled)
	b.m["spill.runs"] = float64(st.SpillRuns)
	b.m["spill.bytes_written"] = float64(st.SpillBytes)
	b.m["spill.max_run_entries"] = float64(st.SpillMaxRunEntries)
	b.m["spill.fallbacks"] = float64(st.SpillFallbacks)
	return nil
}

// layerMetrics fills the per-layer metrics the traced phases recorded.
func (b *bench) layerMetrics() {
	med := func(name string) float64 { return median(b.tr.durations(name)) }
	m := b.m
	m["dataset.read_ms"] = med("dataset.read")
	m["dataset.append_ms"] = med("dataset.append")
	m["dataset.append_parsed_rows"] = median(b.appendParsed)
	m["dataset.append_kept_frac"] = frac(float64(b.delta), median(b.appendParsed))

	// A workload that does not search reports its set-up quality step:
	// P_A, one sizing scan and one evaluation of the label.
	st := b.lastBuild.stats
	m["search.distinct_ms"], m["search.enumerate_ms"], m["search.evaluate_ms"] = b.qDistinctMS, b.qSizeMS, b.qEvalMS
	m["search.sets_sized"], m["search.inbound_frac"], m["search.evaluated"] = 1, 1, 1
	m["search.patterns_per_eval"] = float64(b.orc.distinct)
	m["search.refined_frac"], m["search.pool_hit_frac"] = 0, 0
	if b.w.bound > 0 {
		m["search.distinct_ms"] = med("search.distinct")
		m["search.enumerate_ms"] = med("search.enumerate")
		m["search.evaluate_ms"] = med("search.evaluate")
		m["search.sets_sized"] = float64(st.SizeComputed)
		m["search.inbound_frac"] = frac(float64(st.InBound), float64(st.SizeComputed))
		m["search.refined_frac"] = frac(float64(st.RefinedSets), float64(st.SizeComputed))
		m["search.evaluated"] = float64(st.Evaluated)
		m["search.patterns_per_eval"] = frac(float64(st.PatternsScanned), float64(st.Evaluated))
		m["search.pool_hit_frac"] = frac(float64(st.PoolHits), float64(st.PoolHits+st.PoolMisses))
	}

	m["core.delta_build_ms"] = med("core.delta_build")
	m["core.rows_scanned"] = median(b.rowsScanned)
	m["artifact.save_ms"] = med("artifact.save")
	m["artifact.open_ms"] = med("artifact.open")
	m["artifact.merge_ms"] = med("artifact.merge")
	m["artifact.syncs_per_commit"] = frac(float64(b.syncs), float64(b.commits))
	m["artifact.write_ops_per_commit"] = frac(float64(b.wops), float64(b.commits))
	m["serve.reload_ms"] = med("serve.reload")
	m["serve.shed_frac"] = frac(float64(b.shed.Load()), float64(b.attempted.Load()))

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["runtime.gc_cpu_frac"] = mem.GCCPUFraction
	m["unaccounted.build_frac"] = b.tr.unaccounted("build")
	m["unaccounted.update_frac"] = b.tr.unaccounted("update")
	m["reference.naive_groupby_ms"] = b.orc.groupByMS
	m["check.error_frac"] = frac(float64(b.failed.Load()), float64(b.attempted.Load()))
	m["quality.label_max_abs_err"] = b.labelErr
}
