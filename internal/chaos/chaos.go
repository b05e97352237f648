// Package chaos is the randomized robustness harness: seeded soak cycles
// drive the whole pipeline — build → save → merge → serve — under
// concurrent cancellation, injected disk faults (ENOSPC, EIO, scripted
// crash points) and client overload, asserting after every step that the
// engine either answered bit-identically to an in-memory oracle or failed
// with the typed error the contract names — never a torn label, a wrong
// count, or a leaked spill file.
//
// The harness is a library so both the test suite (seeded smoke under
// -race) and longer out-of-band soaks share one implementation. All
// randomness flows from Config.Seed: a failing run is re-playable by seed.
package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pcbl/internal/artifact"
	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
	"pcbl/internal/serve"
	"pcbl/internal/spill"
)

// Config parameterizes one soak.
type Config struct {
	// Seed drives every random choice; equal seeds replay equal soaks
	// (modulo goroutine scheduling, which the invariants are robust to).
	Seed uint64
	// Cycles is the number of build→save→merge→serve cycles; 0 means 3.
	Cycles int
	// Duration, when positive, stops the soak early once exceeded
	// (checked between cycles) so CI smoke stays bounded.
	Duration time.Duration
	// Dir is the scratch root for spill and artifact directories;
	// empty means a fresh temp directory that the soak removes.
	Dir string
	// Logf, when non-nil, receives per-cycle progress lines.
	Logf func(format string, args ...any)
}

// Report totals what a soak observed. Counters are informational — the
// pass/fail signal is Soak's error — but a healthy soak shows nonzero
// chaos: cancellations that fired, fallbacks that degraded, sheds that
// shed. A soak whose counters are all zero exercised nothing.
type Report struct {
	Cycles           int
	BuildCancels     int64 // builds aborted by their context, typed
	SpillFallbacks   int64 // spill scans degraded to in-memory (EIO/ENOSPC)
	NoSpaceFallbacks int64 // the ENOSPC-classified subset
	SaveFailures     int64 // chaotic saves that failed typed-or-crash-safe
	SaveNoSpace      int64 // the spill.ErrNoSpace-classified subset
	Kills            int64 // scripted crash points that fired
	Merges           int64 // merges that committed
	MergeFailures    int64 // merges that failed with the base left serving
	ServeOK          int64 // 200s, every one verified against the oracle
	ServeShed        int64 // 429s and 503s under overload or timeout
	ServeClientDrops int64 // client-side cancellations mid-request
}

func (r Report) String() string {
	return fmt.Sprintf("cycles=%d buildCancels=%d spillFallbacks=%d (enospc=%d) "+
		"saveFailures=%d (enospc=%d kills=%d) merges=%d mergeFailures=%d "+
		"serveOK=%d serveShed=%d serveClientDrops=%d",
		r.Cycles, r.BuildCancels, r.SpillFallbacks, r.NoSpaceFallbacks,
		r.SaveFailures, r.SaveNoSpace, r.Kills, r.Merges, r.MergeFailures,
		r.ServeOK, r.ServeShed, r.ServeClientDrops)
}

// faultableOps are the operation classes a chaotic cycle may fault.
var faultableOps = []iofault.Op{iofault.OpCreate, iofault.OpWrite, iofault.OpRead, iofault.OpMkdir}

// Soak runs the configured number of chaos cycles and returns the first
// invariant violation, or nil with the totals when every cycle held.
func Soak(cfg Config) (Report, error) {
	var rep Report
	if cfg.Cycles == 0 {
		cfg.Cycles = 5
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "pcbl-chaos-*")
		if err != nil {
			return rep, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xC4A05))
	start := time.Now()
	for c := 0; c < cfg.Cycles; c++ {
		if cfg.Duration > 0 && c > 0 && time.Since(start) > cfg.Duration {
			logf("chaos: duration bound hit after %d cycles", c)
			break
		}
		if err := cycle(cfg, rng, c, &rep, logf); err != nil {
			return rep, fmt.Errorf("chaos seed %#x cycle %d: %w", cfg.Seed, c, err)
		}
		rep.Cycles++
	}
	return rep, nil
}

// cycle runs one build→save→merge→serve pass inside its own scratch dir.
func cycle(cfg Config, rng *rand.Rand, c int, rep *Report, logf func(string, ...any)) error {
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("cycle-%03d", c))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rows := 1200 + rng.IntN(1200)
	domain := 120 + rng.IntN(200)
	d := mkDataset(rng, rows, 4, domain)
	cut := rows - 80 - rng.IntN(80)
	base, err := d.Slice(0, cut)
	if err != nil {
		return err
	}
	delta, err := d.Slice(cut, rows)
	if err != nil {
		return err
	}
	s := lattice.FullSet(4)
	baseOracle, err := core.BuildLabel(base, s, core.CountOptions{})
	if err != nil {
		return err
	}
	fullOracle, err := core.BuildLabel(d, s, core.CountOptions{})
	if err != nil {
		return err
	}
	probes := mkProbes(rng, d, s, 24)

	if err := buildPhase(rng, base, s, baseOracle, probes, dir, rep); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	artDir, merged, err := artifactPhase(rng, base, delta, s, dir, rep, logf)
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	oracle := baseOracle
	if merged {
		oracle = fullOracle
	}
	if err := servePhase(rng, artDir, d, oracle, probes, rep); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	logf("chaos: cycle %d ok (%s)", c, rep)
	return nil
}

// buildPhase builds the base label under a tight memory budget with a
// randomly faulted filesystem and, half the time, a context that fires
// mid-build. A finished build must answer every probe like the oracle; an
// aborted one must carry the typed context error. Either way the spill
// scratch ends empty.
func buildPhase(rng *rand.Rand, d *dataset.Dataset, s lattice.AttrSet,
	oracle *core.Label, probes []probe, dir string, rep *Report) error {
	spillDir := filepath.Join(dir, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return err
	}
	ffs := iofault.NewFaultFS(nil)
	switch rng.IntN(3) {
	case 1:
		ffs.NoSpaceFrom(faultableOps[rng.IntN(len(faultableOps))], 1+int64(rng.IntN(12)))
	case 2:
		ffs.FailFrom(faultableOps[rng.IntN(len(faultableOps))], 1+int64(rng.IntN(12)), nil)
	}
	// Half the builds race a canceller. One sixth arrive with the context
	// already fired — the entry check must refuse them every time. A third
	// race a concurrent spin-yield canceller: timer-based contexts can't
	// land inside a sub-millisecond build (runtime timer granularity is
	// coarser than the build), and these cycles' datasets fit one scan
	// block, so a mid-scan poll may never run before the build finishes —
	// whether the spin cancel lands is scheduling luck, and both outcomes
	// (typed abort, completed label) are legal. The pre-fired arm is what
	// guarantees the cancel path runs every soak.
	ctx := context.Context(nil)
	switch rng.IntN(6) {
	case 0: // pre-fired: refused at the entry check before any work
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		ctx = cctx
	case 1, 2: // spin canceller racing the build
		cctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx = cctx
		delay := time.Duration(rng.IntN(1_200_000)) * time.Nanosecond
		go func() {
			target := time.Now().Add(delay)
			for time.Now().Before(target) {
				runtime.Gosched()
			}
			cancel()
		}()
	}
	var stats core.ScanStats
	l, err := core.BuildLabel(d, s, core.CountOptions{
		Workers: 1 + rng.IntN(4), MemBudget: 16 << 10,
		SpillDir: spillDir, FS: ffs, Stats: &stats, Ctx: ctx,
	})
	switch {
	case err != nil:
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("build failed with untyped error %v (faults must degrade, not fail)", err)
		}
		rep.BuildCancels++
	default:
		for i, p := range probes {
			want, wok, werr := oracle.CountCtx(nil, p.pat)
			if werr != nil {
				l.ReleaseSpill()
				return fmt.Errorf("probe %d: oracle: %w", i, werr)
			}
			got, gok, cerr := l.CountCtx(nil, p.pat)
			if cerr != nil || got != want || gok != wok {
				l.ReleaseSpill()
				return fmt.Errorf("probe %d: chaotic build answered (%d,%v,%v), oracle (%d,%v)",
					i, got, gok, cerr, want, wok)
			}
		}
		l.ReleaseSpill()
	}
	rep.SpillFallbacks += stats.SpillFallbacks
	rep.NoSpaceFallbacks += stats.SpillNoSpaceFallbacks
	return assertEmptyDir(spillDir)
}

// artifactPhase saves the base label under chaos, retries cleanly when the
// chaotic save failed, then merges the delta under chaos. It returns the
// directory holding a valid artifact and whether the merge committed.
func artifactPhase(rng *rand.Rand, base, delta *dataset.Dataset, s lattice.AttrSet,
	dir string, rep *Report, logf func(string, ...any)) (string, bool, error) {
	l, err := core.BuildLabel(base, s, core.CountOptions{
		MemBudget: 16 << 10, SpillDir: filepath.Join(dir, "build-spill"),
	})
	if err != nil {
		return "", false, err
	}
	defer l.ReleaseSpill()

	artDir := filepath.Join(dir, "artifact")
	ffs := iofault.NewFaultFS(nil)
	switch rng.IntN(4) {
	case 1:
		ffs.NoSpaceFrom(faultableOps[rng.IntN(len(faultableOps))], 1+int64(rng.IntN(16)))
	case 2:
		ffs.FailFrom(faultableOps[rng.IntN(len(faultableOps))], 1+int64(rng.IntN(16)), nil)
	case 3:
		ffs.KillAt(faultableOps[rng.IntN(len(faultableOps))], 1+int64(rng.IntN(16)))
	}
	saveErr := artifact.SaveFS(l, artDir, ffs)
	if ffs.Killed() {
		rep.Kills++
		if saveErr == nil {
			return "", false, errors.New("save swallowed a scripted crash")
		}
	}
	if saveErr != nil {
		rep.SaveFailures++
		if errors.Is(saveErr, spill.ErrNoSpace) {
			rep.SaveNoSpace++
		}
		// Crash safety: an aborted save left no committed artifact.
		if _, _, openErr := artifact.OpenFS(artDir, nil); openErr == nil {
			return "", false, fmt.Errorf("failed save (%v) left an openable artifact", saveErr)
		}
		os.RemoveAll(artDir)
		if err := artifact.SaveFS(l, artDir, nil); err != nil {
			return "", false, fmt.Errorf("clean retry save: %w", err)
		}
	}
	_, m, err := artifact.OpenFS(artDir, nil)
	if err != nil {
		return "", false, err
	}

	dl, err := core.BuildLabel(delta, s, core.CountOptions{})
	if err != nil {
		return "", false, err
	}
	mffs := iofault.NewFaultFS(nil)
	switch rng.IntN(3) {
	case 1:
		mffs.NoSpaceFrom(faultableOps[rng.IntN(len(faultableOps))], 1+int64(rng.IntN(16)))
	case 2:
		mffs.KillAt(faultableOps[rng.IntN(len(faultableOps))], 1+int64(rng.IntN(16)))
	}
	_, mergeErr := artifact.MergeIntoFS(artDir, dl, m, mffs)
	if mffs.Killed() {
		rep.Kills++
	}
	if mergeErr != nil {
		rep.MergeFailures++
		// The previous generation must still open and serve.
		if _, om, openErr := artifact.OpenFS(artDir, nil); openErr != nil {
			return "", false, fmt.Errorf("failed merge (%v) broke the base artifact: %v", mergeErr, openErr)
		} else if om.Epoch != m.Epoch {
			return "", false, fmt.Errorf("failed merge moved the epoch %d -> %d", m.Epoch, om.Epoch)
		}
		return artDir, false, nil
	}
	rep.Merges++
	return artDir, true, nil
}

// servePhase serves the artifact under tight admission limits and hammers
// it with concurrent clients whose requests randomly cancel. Every 200
// must match the oracle; 429/503 are the contract's overload answers;
// anything else fails the soak.
func servePhase(rng *rand.Rand, artDir string, d *dataset.Dataset,
	oracle *core.Label, probes []probe, rep *Report) error {
	l, _, err := artifact.OpenFS(artDir, nil)
	if err != nil {
		return err
	}
	defer l.ReleaseSpill()
	h := serve.NewHandler(l)
	// A quarter of the cycles serve under an already-expired request
	// deadline: every admitted query must shed 503 (never a wrong count,
	// never a degraded label) — the deterministic overload arm, since
	// micro-second counts can't organically back the queue up to its
	// millisecond timeout.
	reqTimeout := time.Duration(5+rng.IntN(45)) * time.Millisecond
	if rng.IntN(4) == 0 {
		reqTimeout = time.Nanosecond
	}
	h.SetLimits(serve.Limits{
		RequestTimeout: reqTimeout,
		MaxInFlight:    1 + rng.IntN(3),
		MaxQueue:       1 + rng.IntN(2),
		QueueTimeout:   time.Duration(1+rng.IntN(4)) * time.Millisecond,
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	urls := make([]string, len(probes))
	wants := make([]int, len(probes))
	for i, p := range probes {
		urls[i] = ts.URL + "/v1/count?q=" + url.QueryEscape(p.expr)
		if wants[i], _, err = oracle.CountCtx(nil, p.pat); err != nil {
			return fmt.Errorf("probe %d: oracle: %w", i, err)
		}
	}

	clients := 4 + rng.IntN(4)
	seeds := make([]uint64, clients)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	errs := make(chan error, clients)
	results := make(chan Report, clients)
	for g := 0; g < clients; g++ {
		go func(seed uint64) {
			var local Report
			crng := rand.New(rand.NewPCG(seed, 0x5E44E))
			client := ts.Client()
			for i := 0; i < 24; i++ {
				pi := crng.IntN(len(urls))
				ctx := context.Background()
				if crng.IntN(3) == 0 {
					tctx, cancel := context.WithTimeout(ctx,
						time.Duration(crng.IntN(1500))*time.Microsecond)
					defer cancel()
					ctx = tctx
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, urls[pi], nil)
				if err != nil {
					errs <- err
					return
				}
				resp, err := client.Do(req)
				if err != nil {
					local.ServeClientDrops++ // client-side cancellation
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var cr serve.CountResult
					if err := decodeJSON(resp, &cr); err != nil {
						errs <- err
						return
					}
					if cr.Count != wants[pi] {
						errs <- fmt.Errorf("probe %d: served %d, oracle %d", pi, cr.Count, wants[pi])
						return
					}
					local.ServeOK++
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					resp.Body.Close()
					local.ServeShed++
				default:
					resp.Body.Close()
					errs <- fmt.Errorf("probe %d: status %d (want 200/429/503)", pi, resp.StatusCode)
					return
				}
			}
			errs <- nil
			results <- local
		}(seeds[g])
	}
	var firstErr error
	for g := 0; g < clients; g++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for g := 0; g < clients; g++ {
		local := <-results
		rep.ServeOK += local.ServeOK
		rep.ServeShed += local.ServeShed
		rep.ServeClientDrops += local.ServeClientDrops
	}
	// The label must not have been marked degraded by cancellations or
	// overload: a health probe still answers ok.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		return err
	}
	var hr serve.HealthResult
	if err := decodeJSON(resp, &hr); err != nil {
		return err
	}
	if hr.Status != "ok" {
		return fmt.Errorf("label degraded after overload soak: %+v", hr)
	}
	return nil
}

// mkDataset builds a NULL-free random dataset (exact lazily-derived
// marginals, so served answers admit an exact oracle).
func mkDataset(rng *rand.Rand, rows, attrs, domain int) *dataset.Dataset {
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	bld := dataset.NewBuilder("chaos", names...)
	for a := 0; a < attrs; a++ {
		for v := 0; v < domain; v++ {
			if _, err := bld.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				panic(err)
			}
		}
	}
	ids := make([]uint16, attrs)
	for r := 0; r < rows; r++ {
		for a := range ids {
			ids[a] = uint16(1 + rng.IntN(domain))
		}
		bld.AppendIDs(ids...)
	}
	d, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return d
}

// probe is one sampled pattern with its /v1/count query expression.
type probe struct {
	pat  core.Pattern
	expr string
}

// mkProbes samples patterns from rows of d over the label set.
func mkProbes(rng *rand.Rand, d *dataset.Dataset, s lattice.AttrSet, n int) []probe {
	probes := make([]probe, n)
	for i := range probes {
		r := rng.IntN(d.NumRows())
		var parts []string
		for _, a := range s.Members() {
			parts = append(parts, fmt.Sprintf("%s=%s", d.Attr(a).Name(), d.Value(r, a)))
		}
		probes[i] = probe{pat: core.PatternFromRow(d, r, s), expr: strings.Join(parts, ",")}
	}
	return probes
}

// assertEmptyDir fails when dir still holds entries (leaked spill files).
func assertEmptyDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		return fmt.Errorf("%d spill entries leaked in %s: %v", len(entries), dir, names)
	}
	return nil
}

func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
