package serve

// Tests for hot reload: POST /v1/reload (and the Reload method SIGHUP
// drives) must swap the served artifact atomically — queries before the
// swap answer from the old generation, queries after from the new, a
// failed reload keeps the old label serving, and the epoch is visible in
// /v1/label and /metrics.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"pcbl/internal/artifact"
	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// reloadFixture serves an artifact at epoch 1 and can advance it to epoch
// 2 by merging a delta in place, exactly the `pcbl update` + reload flow.
type reloadFixture struct {
	dir     string
	full    *dataset.Dataset
	ts      *httptest.Server
	h       *Handler
	failing bool
}

func newReloadFixture(t *testing.T) *reloadFixture {
	t.Helper()
	d := testDataset(t, 2000, 3, 6, 0xE10)
	base, err := d.Slice(0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	l := must(core.BuildLabel(base, lattice.FullSet(3), core.CountOptions{}))
	dir := t.TempDir() + "/artifact"
	if err := artifact.SaveFS(l, dir, nil); err != nil {
		t.Fatal(err)
	}
	rl, m, err := artifact.OpenFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rl.ReleaseSpill)

	f := &reloadFixture{dir: dir}
	f.h = NewReloadableHandler(rl, m.Epoch, func() (*core.Label, int64, error) {
		if f.failing {
			return nil, 0, errors.New("scripted reload failure")
		}
		nl, nm, err := artifact.OpenFS(dir, nil)
		if err != nil {
			return nil, 0, err
		}
		return nl, nm.Epoch, nil
	})
	f.ts = httptest.NewServer(f.h)
	t.Cleanup(f.ts.Close)
	f.full = d
	return f
}

// advance merges the withheld suffix into the on-disk artifact, moving it
// to epoch 2 without telling the handler.
func (f *reloadFixture) advance(t *testing.T) {
	t.Helper()
	delta, err := f.full.Slice(1500, f.full.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	dl := must(core.BuildLabel(delta, lattice.FullSet(3), core.CountOptions{}))
	if _, err := artifact.MergeIntoFS(f.dir, dl, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func (f *reloadFixture) count(t *testing.T, expr string) int {
	t.Helper()
	var out CountResult
	if code := getJSON(t, f.ts.Client(), f.ts.URL+"/v1/count?q="+url.QueryEscape(expr), &out); code != http.StatusOK {
		t.Fatalf("count %q: status %d", expr, code)
	}
	return out.Count
}

func (f *reloadFixture) labelEpoch(t *testing.T) int64 {
	t.Helper()
	var info LabelInfo
	if code := getJSON(t, f.ts.Client(), f.ts.URL+"/v1/label", &info); code != http.StatusOK {
		t.Fatalf("label info: status %d", code)
	}
	return info.Epoch
}

func TestServeReload(t *testing.T) {
	f := newReloadFixture(t)
	expr := exprFor(f.full, 0, 2)

	if got := f.labelEpoch(t); got != 1 {
		t.Fatalf("initial epoch = %d, want 1", got)
	}
	oldOracle := must(core.BuildLabel(mustSlice(t, f.full, 0, 1500), lattice.FullSet(3), core.CountOptions{}))
	newOracle := must(core.BuildLabel(f.full, lattice.FullSet(3), core.CountOptions{}))
	wantOld := oracleCount(t, oldOracle, expr)
	wantNew := oracleCount(t, newOracle, expr)
	if wantOld == wantNew {
		t.Fatal("fixture shape useless: counts agree across epochs")
	}
	if got := f.count(t, expr); got != wantOld {
		t.Fatalf("pre-reload count = %d, want %d", got, wantOld)
	}

	f.advance(t)
	// The artifact moved on disk; the handler must keep serving epoch 1
	// until told to reload.
	if got := f.count(t, expr); got != wantOld {
		t.Fatalf("count changed before reload: %d", got)
	}

	resp, err := f.ts.Client().Post(f.ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d", resp.StatusCode)
	}
	var rr ReloadResult
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Epoch != 2 || rr.TotalRows != f.full.NumRows() {
		t.Fatalf("reload result = %+v", rr)
	}
	if got := f.labelEpoch(t); got != 2 {
		t.Fatalf("post-reload epoch = %d", got)
	}
	if got := f.count(t, expr); got != wantNew {
		t.Fatalf("post-reload count = %d, want %d", got, wantNew)
	}

	// Reload is also a method (the SIGHUP path).
	if epoch, err := f.h.Reload(); err != nil || epoch != 2 {
		t.Fatalf("Reload() = (%d, %v)", epoch, err)
	}

	// Metrics carry the epoch and the reload counter (2 so far).
	mresp, err := f.ts.Client().Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, mresp)
	metrics := parseMetrics(t, body)
	if metrics["pcbl_label_epoch"] != 2 {
		t.Fatalf("pcbl_label_epoch = %d", metrics["pcbl_label_epoch"])
	}
	if metrics["pcbl_reloads_total"] != 2 {
		t.Fatalf("pcbl_reloads_total = %d", metrics["pcbl_reloads_total"])
	}

	// A failing reload keeps the current generation serving and reports
	// 500 with the error.
	f.failing = true
	fresp, err := f.ts.Client().Post(f.ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing reload status = %d", fresp.StatusCode)
	}
	if got := f.count(t, expr); got != wantNew {
		t.Fatalf("count after failed reload = %d, want %d", got, wantNew)
	}
	if got := f.labelEpoch(t); got != 2 {
		t.Fatalf("epoch after failed reload = %d", got)
	}
}

// TestServeReloadNotConfigured: plain NewHandler has no reload source;
// POST /v1/reload must answer 501, not crash.
func TestServeReloadNotConfigured(t *testing.T) {
	d := testDataset(t, 200, 3, 4, 0xE20)
	l := must(core.BuildLabel(d, lattice.FullSet(3), core.CountOptions{}))
	ts := httptest.NewServer(NewHandler(l))
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

// TestServeReloadConcurrent hammers queries while reloads swap the label:
// every answer must equal one of the two generations' oracle counts —
// in-flight queries finish on the generation they started on.
func TestServeReloadConcurrent(t *testing.T) {
	f := newReloadFixture(t)
	expr := exprFor(f.full, 0, 2)
	oldOracle := must(core.BuildLabel(mustSlice(t, f.full, 0, 1500), lattice.FullSet(3), core.CountOptions{}))
	newOracle := must(core.BuildLabel(f.full, lattice.FullSet(3), core.CountOptions{}))
	wantOld := oracleCount(t, oldOracle, expr)
	wantNew := oracleCount(t, newOracle, expr)
	f.advance(t)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var out CountResult
				code := getJSON(t, f.ts.Client(), f.ts.URL+"/v1/count?q="+url.QueryEscape(expr), &out)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("status %d", code)
					return
				}
				if out.Count != wantOld && out.Count != wantNew {
					errs <- fmt.Sprintf("count %d matches neither generation (%d, %d)", out.Count, wantOld, wantNew)
					return
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		if _, err := f.h.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// --- small local helpers ---

func mustSlice(t *testing.T, d *dataset.Dataset, lo, hi int) *dataset.Dataset {
	t.Helper()
	s, err := d.Slice(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func oracleCount(t *testing.T, l *core.Label, expr string) int {
	t.Helper()
	p, err := core.NewPattern(l.Dataset(), mustParse(t, expr))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := must2(l.CountCtx(nil, p))
	return c
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
