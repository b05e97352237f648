package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"pcbl"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed    uint64
	seconds float64 // the serve phase's length (see rounds)
	trace   bool
	scale   float64 // multiplies dataset sizes; tests set it, 0 is the reference size
	rounds  int     // overrides the workload's round count; tests set it
	setups  int     // set-ups per run; setup_s is their median
	dir     string  // working directory, wiped at every set-up
	out     string  // where the trace file goes
	log     io.Writer

	// wrap, when set, wraps the served handler; tests perturb answers
	// through it.
	wrap func(http.Handler) http.Handler
}

const (
	// clients is the number of load-generating connections, and workers
	// the engine's counting workers: one per CPU of the reference machine.
	clients = 2
	workers = 2

	// drainGrace bounds how long the open loop waits for its backlog after
	// the last send was due; requests still queued then count as failed.
	drainGrace = 2 * time.Second

	// poolStream separates the query pool's random stream from the data's.
	poolStream = 0x9E3779B97F4A7C15

	// updatesPerRound is the number of 1% updates each round times.
	updatesPerRound = 3

	// tracedClosedShare is the share of the serve phase a traced run gives
	// the closed loop; the open loop gets the rest.
	tracedClosedShare = 0.3
)

// bench is the state of one workload run.
type bench struct {
	cfg runConfig
	w   *workload
	tr  *tracer // nil in an untraced run
	eng engine

	baseCSV, grownCSV, artDir string
	baseRows, delta, nrounds  int

	full  *pcbl.Dataset // generated rows of every epoch
	attrs []string      // the label attributes S
	orc   *oracle
	pool  []request

	// Serving: the generation the loops query, the handler in front of it
	// (wrapped in tests), and the HTTP client.
	served *generation
	front  http.Handler
	client *http.Client
	urls   []string

	// Read only by traced runs: the set-up's quality step and the last
	// traced build.
	labelErr                      float64
	qDistinctMS, qSizeMS, qEvalMS float64
	lastBuild                     buildOut

	// The data epochs a response may be answered from: a reload moves hi
	// before the swap and lo after it.
	servingLo, servingHi atomic.Int64

	attempted, failed, shed, wrong atomic.Int64

	updateTimes          []float64
	appendParsed         []float64
	rowsScanned          []float64
	commits, syncs, wops int64

	m map[string]float64
}

// generation is an artifact directory opened behind the daemon's reloadable
// handler; cur is the label the handler serves now.
type generation struct {
	dir string
	h   *handler
	cur atomic.Pointer[label]
}

// openGeneration opens the artifact in dir behind a reloadable handler
// whose reloads reopen dir.
func openGeneration(dir string) (*generation, error) {
	l, m, err := openArtifact(dir)
	if err != nil {
		return nil, err
	}
	g := &generation{dir: dir}
	g.cur.Store(l)
	g.h = newHandler(l, m.Epoch, func() (*label, int64, error) {
		nl, nm, err := openArtifact(dir)
		if err != nil {
			return nil, 0, err
		}
		g.cur.Store(nl)
		return nl, nm.Epoch, nil
	})
	return g, nil
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs the set-ups and then the measured rounds of one
// workload, and returns its metrics: the end-to-end ones untraced, the
// per-layer ones traced.
func runWorkload(w *workload, cfg runConfig) (*result, error) {
	rows := w.rows
	if cfg.scale > 0 {
		rows = max(int(float64(rows)*cfg.scale), 400)
	}
	b := &bench{
		cfg:      cfg,
		w:        w,
		delta:    rows / 100,
		baseRows: rows - rows/100,
		nrounds:  w.rounds,
		baseCSV:  filepath.Join(cfg.dir, "base.csv"),
		grownCSV: filepath.Join(cfg.dir, "grown.csv"),
		artDir:   filepath.Join(cfg.dir, "art"),
		eng:      engine{Workers: workers, MemBudget: w.memBudget, SpillDir: filepath.Join(cfg.dir, "spill")},
		m:        make(map[string]float64),
	}
	if cfg.rounds > 0 {
		b.nrounds = cfg.rounds
	}
	if cfg.trace {
		b.tr = newTracer(w.name)
	}
	var setups []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		// Every set-up starts from the same heap: the previous one's state
		// is dropped and collected before the clock starts.
		if b.served != nil {
			b.served.cur.Load().ReleaseSpill()
		}
		b.served, b.front, b.full, b.orc, b.pool = nil, nil, nil, nil, nil
		runtime.GC()
		t := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer b.served.cur.Load().ReleaseSpill()
	b.m["setup_s"] = median(setups)
	sets, repeated := attrSets(b.pool)
	fmt.Fprintf(cfg.log, "%s: the label is over %v; the pool's %d requests are over %d attribute sets, %.1f%% repeat an earlier request's set\n",
		w.name, b.attrs, len(b.pool), sets, 100*repeated)
	stop, err := b.startServing()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer stop()
	if err := b.rounds(); err != nil {
		return nil, err
	}
	if b.tr != nil {
		if err := b.probeCore(); err != nil {
			return nil, fmt.Errorf("core probe: %w", err)
		}
		b.layerMetrics()
		b.tr.printSelfTimes(cfg.log)
		if err := b.tr.write(filepath.Join(cfg.out, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return b.result()
}

// epochs is the number of 1% updates the data holds. Serve-under-update
// updates the served artifact in every round; the other workloads update
// each round's own build, epochs 1 to updatesPerRound every time.
func (b *bench) epochs() int {
	if b.w.updateBesideReads {
		return b.nrounds * updatesPerRound
	}
	return updatesPerRound
}

// setup generates the data, writes the base and grown CSVs, builds the
// artifact the loops will query (a search also learns the label attributes
// here), computes the oracle and the query pool, opens the artifact behind
// the daemon's handler and sends one query per attribute set of the pool
// in process, which builds every lazy marginal index the loops need.
func (b *bench) setup() error {
	if err := os.RemoveAll(b.cfg.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(b.eng.SpillDir, 0o755); err != nil {
		return err
	}
	full, err := b.w.gen(b.baseRows+b.epochs()*b.delta, b.cfg.seed)
	if err != nil {
		return err
	}
	base, err := headRows(full, b.baseRows)
	if err != nil {
		return err
	}
	if err := writeCSV(b.baseCSV, base); err != nil {
		return err
	}
	if err := writeCSV(b.grownCSV, full); err != nil {
		return err
	}
	b.full = full

	out, _, err := b.build("setup", b.artDir, nil, nil)
	if err != nil {
		return err
	}
	b.attrs = out.attrs
	if len(b.attrs) == 0 {
		return fmt.Errorf("the set-up build chose an empty label; no query can be checked")
	}
	size, err := dirSize(b.artDir)
	if err != nil {
		return err
	}
	b.m["artifact_kb"] = float64(size) / 1024
	bounds := make([]int, b.epochs()+1)
	for k := range bounds {
		bounds[k] = b.baseRows + k*b.delta
	}
	var S []int
	for _, name := range b.attrs {
		a, ok := full.AttrIndex(name)
		if !ok {
			return fmt.Errorf("label attribute %q is not in the generated schema", name)
		}
		S = append(S, a)
	}
	b.orc = newOracle(full, bounds, S)
	b.pool = b.orc.buildPool(rand.New(rand.NewPCG(b.cfg.seed, poolStream)), poolSize)
	ref, err := b.expectEstimates()
	if err != nil {
		return err
	}
	if err := b.quality(base, ref, out); err != nil {
		return err
	}

	s := b.tr.begin("artifact.open", "setup", -1)
	b.served, err = openGeneration(b.artDir)
	b.tr.end(s)
	if err != nil {
		return err
	}
	if err := b.orc.checkLabel(b.served.cur.Load(), 0); err != nil {
		return fmt.Errorf("set-up artifact: %w", err)
	}
	b.front = b.served.h
	if b.cfg.wrap != nil {
		b.front = b.cfg.wrap(b.served.h)
	}
	seen := make(map[string]bool)
	for i := range b.pool {
		r := &b.pool[i]
		if key := fmt.Sprint(r.kind, r.attrs); !seen[key] {
			seen[key] = true
			b.serveInProcess(b.front, r)
		}
	}
	return nil
}

// expectEstimates answers every estimate of the pool with an in-process
// label rebuilt from the generated rows, at each epoch a query can see
// (NaN, which matches nothing, at the others), and returns the epoch-0
// label.
func (b *bench) expectEstimates() (*label, error) {
	for i := range b.pool {
		if r := &b.pool[i]; r.kind == kindEstimate {
			r.est = make([]float64, len(b.orc.bounds))
			for e := range r.est {
				r.est[e] = math.NaN()
			}
		}
	}
	var ref *label
	for e, rows := range b.orc.bounds {
		if e > 0 && !b.w.updateBesideReads {
			break // the loops query the set-up's generation only
		}
		d, err := headRows(b.full, rows)
		if err != nil {
			return nil, err
		}
		l, err := buildLabel(d, engine{Workers: workers}, b.attrs)
		if err != nil {
			return nil, err
		}
		for i := range b.pool {
			r := &b.pool[i]
			if r.kind != kindEstimate {
				continue
			}
			p, err := parsePattern(d, r.expr)
			if err != nil {
				return nil, err
			}
			if r.est[e], err = estimate(l, p); err != nil {
				return nil, err
			}
		}
		if e == 0 {
			ref = l
		}
	}
	return ref, nil
}

// quality checks the chosen label against the oracle: |P_A|, the label
// size the sizing kernel reports, and Err(L_S(D), P_A) against what the
// search reported. Its timings stand in for the search layer on
// workloads that do not search.
func (b *bench) quality(base *pcbl.Dataset, ref *label, out buildOut) error {
	t := time.Now()
	ps := distinctTuples(base)
	b.qDistinctMS = ms(time.Since(t))
	if ps.Len() != b.orc.distinct {
		return fmt.Errorf("|P_A| is %d, the oracle counts %d distinct rows", ps.Len(), b.orc.distinct)
	}
	t = time.Now()
	size, err := labelSize(base, b.attrs)
	b.qSizeMS = ms(time.Since(t))
	if err != nil {
		return err
	}
	if size != b.orc.label.sizes[0] {
		return fmt.Errorf("label size is %d, the oracle counts %d", size, b.orc.label.sizes[0])
	}
	t = time.Now()
	b.labelErr = maxAbsErr(ref, ps)
	b.qEvalMS = ms(time.Since(t))
	if b.w.bound > 0 && math.Abs(b.labelErr-out.maxErr) > 1e-9*math.Max(1, b.labelErr) {
		return fmt.Errorf("search reports max error %v, evaluation gives %v", out.maxErr, b.labelErr)
	}
	return nil
}

// buildOut is what one build learned.
type buildOut struct {
	attrs  []string
	maxErr float64
	stats  searchStats
}

// build runs the user's build: CSV on disk to committed artifact. tr and
// fs are nil on untraced builds.
func (b *bench) build(name, dir string, tr *tracer, fs *countingFS) (buildOut, time.Duration, error) {
	var out buildOut
	phase := "build#" + name
	id := tr.begin("build", phase, -1)
	t := time.Now()
	s := tr.begin("dataset.read", phase, id)
	d, err := readCSV(b.baseCSV)
	tr.end(s)
	if err != nil {
		return out, 0, err
	}
	var l *label
	if b.w.bound > 0 {
		s = tr.begin("search.distinct", phase, id)
		ps := distinctTuples(d)
		tr.end(s)
		s = tr.begin("search.generate", phase, id)
		res, err := search(d, ps, b.w.bound, b.eng)
		tr.end(s)
		if err != nil {
			return out, 0, err
		}
		if tr != nil {
			sp := tr.at(s)
			mid := sp.start + res.Stats.SearchTime
			tr.add("search.enumerate", phase, s, sp.start, mid)
			tr.add("search.evaluate", phase, s, mid, mid+res.Stats.EvalTime)
		}
		l, out.maxErr, out.stats = res.Label, res.MaxErr, res.Stats
		out.attrs = labelAttrNames(l)
	} else {
		out.attrs = d.AttrNames()
		s = tr.begin("core.label_build", phase, id)
		l, err = buildLabel(d, b.eng, out.attrs)
		tr.end(s)
		if err != nil {
			return out, 0, err
		}
	}
	s = tr.begin("artifact.save", phase, id)
	err = saveArtifact(l, dir, fs)
	tr.end(s)
	l.ReleaseSpill()
	dur := time.Since(t)
	tr.end(id)
	b.attempted.Add(1)
	return out, dur, err
}

// rounds runs the measured part of a run as interleaved rounds, so that
// every metric's samples span the whole run: the speed of a shared machine
// drifts over seconds, and the drift then touches every metric alike.
// Each round
//
//   - builds the workload's number of times;
//   - serves a slice of the closed loop: 1/rounds of the serve phase, or
//     of its closed-loop share in a traced run, whose open loop gets the
//     rest (untraced runs report no open-loop metric);
//   - updates three times: serve-under-update the served artifact, during
//     the closed-loop slice; the others the round's last build, opened
//     behind a handler of its own, so that the loops always query the
//     set-up's generation with every lazy index built.
//
// A full collection before each timed piece starts it from the same heap.
// peak_rss_mb is the median over the rounds of each round's peak resident
// set: the peak of the whole run is its worst round's, and which round
// peaks highest depends on when the collector ran.
func (b *bench) rounds() error {
	n := b.nrounds
	closedShare := 1.0
	if b.tr != nil {
		closedShare = tracedClosedShare
	}
	slice := func(share float64) time.Duration {
		return time.Duration(b.cfg.seconds * share / float64(n) * float64(time.Second))
	}
	var builds, traced, allocs, closedLat, openLat, lags []float64
	var qps, p50, peaks []float64 // one per round
	var hot, floating, loads, retries int64
	for r := 0; r < n; r++ {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var target string // the artifact this round's updates merge into
		for i := 0; i < b.w.builds; i++ {
			name := fmt.Sprintf("%d.%d", r, i)
			dir := filepath.Join(b.cfg.dir, "art-"+name)
			runtime.GC()
			out, d, err := b.build(name, dir, nil, nil)
			if err == nil {
				err = b.checkBuild(out, dir)
			}
			if err == nil && (i < b.w.builds-1 || b.w.updateBesideReads) {
				err = os.RemoveAll(dir)
			}
			if err != nil {
				return fmt.Errorf("build: %w", err)
			}
			builds = append(builds, d.Seconds())
			target = dir
		}

		if b.tr != nil {
			name := strconv.Itoa(r)
			dir := filepath.Join(b.cfg.dir, "art-traced-"+name)
			runtime.GC()
			fs := newCountingFS()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			out, d, err := b.build("traced-"+name, dir, b.tr, fs)
			runtime.ReadMemStats(&m1)
			if err == nil {
				err = b.checkBuild(out, dir)
			}
			if err == nil {
				err = os.RemoveAll(dir)
			}
			if err != nil {
				return fmt.Errorf("traced build: %w", err)
			}
			traced = append(traced, d.Seconds())
			allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			b.countCommit(fs)
			b.lastBuild = out
		}

		runtime.GC()
		var beside func(time.Duration) error
		if b.w.updateBesideReads {
			beside = func(d time.Duration) error {
				start := time.Now()
				for u := 1; u <= updatesPerRound; u++ {
					time.Sleep(time.Until(start.Add(time.Duration(u) * d / (updatesPerRound + 1))))
					if err := b.update(b.served, r*updatesPerRound+u); err != nil {
						return err
					}
				}
				return nil
			}
		}
		l := b.served.cur.Load()
		h0, f0, l0, r0 := spillReads(l)
		s := b.tr.begin("loadgen.closed", "serve", -1)
		ok, elapsed, lat, err := b.closedLoop(slice(closedShare), beside)
		b.tr.end(s)
		if err != nil {
			return fmt.Errorf("update: %w", err)
		}
		h1, f1, l1, r1 := spillReads(l)
		hot, floating, loads, retries = hot+h1-h0, floating+f1-f0, loads+l1-l0, retries+r1-r0
		sort.Float64s(lat)
		qps, p50 = append(qps, float64(ok)/elapsed.Seconds()), append(p50, percentile(lat, 0.50))
		closedLat = append(closedLat, lat...)

		if b.tr != nil {
			runtime.GC()
			s = b.tr.begin("loadgen.open", "serve", -1)
			lat, lg := b.openLoop(slice(1 - closedShare))
			b.tr.end(s)
			openLat, lags = append(openLat, lat...), append(lags, lg...)
		}
		if !b.w.updateBesideReads {
			if err := b.updateRound(target); err != nil {
				return fmt.Errorf("update: %w", err)
			}
		}
		rss, err := peakRSS()
		if err != nil {
			return err
		}
		peaks = append(peaks, rss)
	}

	b.m["peak_rss_mb"] = median(peaks)
	b.m["pipeline.build_s"] = median(builds)
	b.m["pipeline.update_s"] = median(b.updateTimes)
	// The closed-loop metrics are medians over the rounds' slices too, so
	// a disturbance that hits one slice does not move them.
	b.m["pipeline.query_qps"] = median(qps)
	b.m["loadgen.closed_p50_us"] = median(p50)
	b.m["core.spill_hot_frac"] = frac(float64(hot), float64(hot+floating+loads))
	b.m["core.run_loads_per_kq"] = 1000 * frac(float64(loads), float64(len(closedLat)))
	b.m["core.spill_read_retries"] = float64(retries)
	if b.tr != nil {
		sort.Float64s(openLat)
		sort.Float64s(lags)
		missed := us(slice(1-closedShare) + drainGrace) // a failed request's latency
		b.m["loadgen.open_p50_us"] = math.Min(percentile(openLat, 0.50), missed)
		b.m["loadgen.open_p90_us"] = math.Min(percentile(openLat, 0.90), missed)
		b.m["loadgen.open_p99_us"] = math.Min(percentile(openLat, 0.99), missed)
		b.m["loadgen.open_samples"] = float64(len(openLat))
		b.m["loadgen.lag_p99_us"] = percentile(lags, 0.99)
		b.m["trace.overhead_frac"] = median(traced)/median(builds) - 1
		b.m["runtime.alloc_mb_per_build"] = median(allocs)
		return b.traceServe(closedLat)
	}
	return nil
}

// updateRound opens a round's build behind a handler of its own, applies
// the round's updates to it, and removes it.
func (b *bench) updateRound(dir string) error {
	g, err := openGeneration(dir)
	if err != nil {
		return err
	}
	for u := 1; u <= updatesPerRound && err == nil; u++ {
		runtime.GC()
		err = b.update(g, u)
	}
	g.cur.Load().ReleaseSpill()
	if err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// startServing puts the served generation behind a loopback server,
// configured as `pcbl serve` configures it. stop shuts the server down.
func (b *bench) startServing() (stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := newServer(b.front)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	b.client = &http.Client{Transport: transport, Timeout: 30 * time.Second}
	b.urls = make([]string, len(b.pool))
	for i, r := range b.pool {
		b.urls[i] = "http://" + ln.Addr().String() + r.path
	}
	return func() {
		transport.CloseIdleConnections()
		srv.Shutdown(context.Background())
		<-done
	}, nil
}

// checkBuild checks that a build chose the set-up build's attributes and
// that its artifact holds the oracle's label.
func (b *bench) checkBuild(out buildOut, dir string) error {
	if fmt.Sprint(out.attrs) != fmt.Sprint(b.attrs) {
		return fmt.Errorf("build chose %v, the set-up build chose %v", out.attrs, b.attrs)
	}
	l, _, err := openArtifact(dir)
	if err != nil {
		return err
	}
	defer l.ReleaseSpill()
	return b.orc.checkLabel(l, 0)
}

func (b *bench) countCommit(fs *countingFS) {
	s, w := fsCounts(fs)
	b.commits++
	b.syncs += s
	b.wops += w
}

// update runs the user's update of generation g to epoch k: grown CSV to
// merged artifact to the new generation serving. It then checks the
// committed label and the served generation against the oracle.
func (b *bench) update(g *generation, k int) error {
	phase := "update#" + strconv.Itoa(k)
	var fs *countingFS
	if b.tr != nil {
		fs = newCountingFS()
	}
	served := g == b.served
	id := b.tr.begin("update", phase, -1)
	t := time.Now()
	s := b.tr.begin("artifact.open", phase, id)
	base, m, err := openArtifact(g.dir)
	b.tr.end(s)
	if err != nil {
		return err
	}
	defer base.ReleaseSpill()
	s = b.tr.begin("dataset.append", phase, id)
	delta, err := readAppend(b.grownCSV, base.Dataset(), m.TotalRows, b.delta)
	b.tr.end(s)
	if err != nil {
		return err
	}
	if delta.NumRows() != b.delta {
		return fmt.Errorf("read %d appended rows, want %d", delta.NumRows(), b.delta)
	}
	s = b.tr.begin("core.delta_build", phase, id)
	var dl *label
	if b.tr != nil {
		var st scanStats
		dl, err = buildLabelStats(delta, b.eng, m.LabelAttrs, &st)
		b.rowsScanned = append(b.rowsScanned, float64(st.RowsScanned))
	} else {
		dl, err = buildDelta(delta, b.eng, m.LabelAttrs)
	}
	b.tr.end(s)
	if err != nil {
		return err
	}
	defer dl.ReleaseSpill()
	s = b.tr.begin("artifact.merge", phase, id)
	nm, err := mergeArtifact(g.dir, dl, m, fs)
	b.tr.end(s)
	if err != nil {
		return err
	}
	if served {
		b.servingHi.Store(int64(k))
	}
	s = b.tr.begin("serve.reload", phase, id)
	epoch, err := g.h.Reload()
	b.tr.end(s)
	if err != nil {
		return err
	}
	if served {
		b.servingLo.Store(int64(k))
	}
	b.updateTimes = append(b.updateTimes, time.Since(t).Seconds())
	b.tr.end(id)
	b.attempted.Add(2)
	b.appendParsed = append(b.appendParsed, float64(m.TotalRows+delta.NumRows()))
	if fs != nil {
		b.countCommit(fs)
	}

	if epoch != nm.Epoch || nm.TotalRows != b.orc.bounds[k] {
		return fmt.Errorf("epoch %d with %d rows serving, merge committed epoch %d, want %d rows",
			epoch, nm.TotalRows, nm.Epoch, b.orc.bounds[k])
	}
	l, _, err := openArtifact(g.dir)
	if err != nil {
		return err
	}
	defer l.ReleaseSpill()
	if err := b.orc.checkLabel(l, k); err != nil {
		return fmt.Errorf("merged artifact: %w", err)
	}
	rec := httptest.NewRecorder()
	g.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/label", nil))
	var info struct {
		Epoch     int64 `json:"epoch"`
		TotalRows int   `json:"total_rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.Epoch != nm.Epoch || info.TotalRows != nm.TotalRows {
		return fmt.Errorf("after reload /v1/label answers %s, want epoch %d with %d rows", rec.Body.Bytes(), nm.Epoch, nm.TotalRows)
	}
	return nil
}

// result picks the metrics this run reports: end-to-end untraced,
// per-layer traced.
func (b *bench) result() (*result, error) {
	specs := endToEnd
	if b.cfg.trace {
		specs = perLayer
	}
	r := &result{
		Correct:   b.wrong.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := b.m[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured (%v)", s.name, v)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return r, nil
}
