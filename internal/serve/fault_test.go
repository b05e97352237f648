package serve

// Degradation tests: a daemon serving a spilled label over a failing disk
// must answer every query with either the exact count or 503 + Retry-After
// — never a wrong answer, never a dead process. /healthz reports the
// degraded state while reads fail and recovers once they succeed, and the
// panic-recovery middleware turns an escaped handler panic into a 503.

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"path/filepath"
	"pcbl/internal/artifact"
	"pcbl/internal/core"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
)

// openServedLabelFS is openServedLabel with the reopened artifact's run
// I/O routed through a FaultFS, so tests can fail query-time reads.
func openServedLabelFS(t *testing.T, seed uint64) (l *core.Label, ffs *iofault.FaultFS, h *Handler, ts *httptest.Server, probe string) {
	t.Helper()
	d := testDataset(t, 4000, 4, 300, seed)
	inproc := must(core.BuildLabel(d, lattice.FullSet(3), core.CountOptions{
		MemBudget: 16 << 10, SpillDir: t.TempDir(),
	}))
	if !inproc.PC().Spilled() {
		t.Fatal("label did not spill; adjust the test shape")
	}
	dir := t.TempDir() + "/artifact"
	if err := artifact.SaveFS(inproc, dir, nil); err != nil {
		t.Fatal(err)
	}
	inproc.ReleaseSpill()
	ffs = iofault.NewFaultFS(nil)
	l, _, err := artifact.OpenFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	h = NewHandler(l)
	ts = httptest.NewServer(h)
	t.Cleanup(ts.Close)
	t.Cleanup(l.ReleaseSpill)
	return l, ffs, h, ts, exprFor(d, 0, 3)
}

func TestServeDegradesAndRecovers(t *testing.T) {
	_, ffs, _, ts, probe := openServedLabelFS(t, 0xD1)
	q := ts.URL + "/v1/count?q=" + url.QueryEscape(probe)
	c := ts.Client()

	// Healthy baseline: the count answers and healthz is ok.
	var cr CountResult
	if code := getJSON(t, c, q, &cr); code != http.StatusOK {
		t.Fatalf("healthy count: status %d", code)
	}
	want := cr.Count
	var hr HealthResult
	if code := getJSON(t, c, ts.URL+"/healthz", &hr); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthy healthz: status %d, %+v", code, hr)
	}

	// Kill the disk. Some queries still answer from pinned runs — those
	// must be exact — and any query needing a load answers 503.
	ffs.FailFrom(iofault.OpRead, ffs.Counts()[iofault.OpRead]+1, nil)
	saw503 := false
	for i := 0; i < 40 && !saw503; i++ {
		u := ts.URL + "/v1/marginal?attrs=" + url.QueryEscape("a0,a1,a2")
		resp, err := c.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			saw503 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
		default:
			t.Fatalf("dead-disk marginal: status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !saw503 {
		t.Fatal("dead disk never surfaced as 503; faults not reaching the read path")
	}
	if code := getJSON(t, c, ts.URL+"/healthz", &hr); code != http.StatusServiceUnavailable || hr.Status != "degraded" {
		t.Fatalf("degraded healthz: status %d, %+v", code, hr)
	}
	if hr.SpillReadErrors == 0 || hr.LastError == "" {
		t.Fatalf("degraded healthz carries no diagnostics: %+v", hr)
	}

	// Heal the disk: the same daemon answers the same query exactly, and
	// healthz flips back to ok on the first success.
	ffs.Reset()
	if code := getJSON(t, c, q, &cr); code != http.StatusOK || cr.Count != want {
		t.Fatalf("healed count: status %d count %d, want 200/%d", code, cr.Count, want)
	}
	if code := getJSON(t, c, ts.URL+"/healthz", &hr); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healed healthz: status %d, %+v", code, hr)
	}
	// The episode stays visible in the cumulative stats.
	var sr StatsResult
	if code := getJSON(t, c, ts.URL+"/v1/stats", &sr); code != http.StatusOK || sr.ReadErrors == 0 {
		t.Fatalf("stats after episode: status %d, %+v", code, sr)
	}
}

func TestServeNeverWrongUnderFaults(t *testing.T) {
	// Sweep single-shot read faults across the query path: every response
	// is either exact or 503 — bit-identical or clean failure.
	l, _, _, ts, probe := openServedLabelFS(t, 0xD2)
	c := ts.Client()
	q := ts.URL + "/v1/count?q=" + url.QueryEscape(probe)
	var cr CountResult
	if code := getJSON(t, c, q, &cr); code != http.StatusOK {
		t.Fatalf("baseline count: status %d", code)
	}
	want := cr.Count
	for n := int64(1); n <= 24; n++ {
		// Fresh handler per trial so no run cache hides the fault.
		l2ffs := iofault.NewFaultFS(nil)
		l2, _, err := artifact.OpenFS(lDir(t, l), l2ffs)
		if err != nil {
			t.Fatal(err)
		}
		l2ffs.FailAt(iofault.OpRead, l2ffs.Counts()[iofault.OpRead]+n, nil)
		ts2 := httptest.NewServer(NewHandler(l2))
		var got CountResult
		code := getJSON(t, ts2.Client(), ts2.URL+"/v1/count?q="+url.QueryEscape(probe), &got)
		switch code {
		case http.StatusOK:
			if got.Count != want {
				t.Fatalf("read fault @%d: count %d, want %d — wrong answer", n, got.Count, want)
			}
		case http.StatusServiceUnavailable:
		default:
			t.Fatalf("read fault @%d: status %d", n, code)
		}
		ts2.Close()
		l2.ReleaseSpill()
	}
}

func TestServeRecoversPanics(t *testing.T) {
	_, _, h, ts, _ := openServedLabelFS(t, 0xD3)
	h.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("scripted handler panic")
	})
	c := ts.Client()
	resp, err := c.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("panicking handler: status %d, want 503", resp.StatusCode)
	}
	var hr HealthResult
	if code := getJSON(t, c, ts.URL+"/healthz", &hr); code != http.StatusServiceUnavailable || hr.RecoveredPanics != 1 {
		t.Fatalf("healthz after panic: status %d, %+v", code, hr)
	}
	// The daemon is alive: an untouched endpoint still answers.
	if code := getJSON(t, c, ts.URL+"/v1/label", nil); code != http.StatusOK {
		t.Fatalf("label endpoint after panic: status %d", code)
	}
}

// lDir recovers the artifact directory a reopened label serves from: the
// adopted runs live in a subdirectory of the artifact.
func lDir(t *testing.T, l *core.Label) string {
	t.Helper()
	r := l.PC().Repr()
	if r.Spill == nil {
		t.Fatal("label is not spilled")
	}
	return filepath.Dir(r.Spill.Runs.Dir())
}
