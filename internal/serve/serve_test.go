package serve

// The serve handler must answer queries bit-identically to the in-process
// label it wraps — including a label reopened from an artifact whose PC
// section is merge-on-read — and must survive concurrent clients (the
// spilled read path is lock-free on pinned runs).

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"pcbl/internal/artifact"
	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

func testDataset(t *testing.T, rows, attrs, domain int, seed uint64) *dataset.Dataset {
	t.Helper()
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	bld := dataset.NewBuilder("servetest", names...)
	for a := 0; a < attrs; a++ {
		for v := 0; v < domain; v++ {
			if _, err := bld.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5E1))
	vals := make([]string, attrs)
	for r := 0; r < rows; r++ {
		for a := range vals {
			vals[a] = fmt.Sprintf("v%d", rng.IntN(domain))
		}
		bld.AppendStrings(vals...)
	}
	d, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// getJSON fetches a URL and decodes the JSON response into out, returning
// the status code.
func getJSON(t *testing.T, c *http.Client, url string, out any) int {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v (body %q)", url, err, body)
		}
	}
	return resp.StatusCode
}

// exprFor renders a pattern over the first k attributes of row r.
func exprFor(d *dataset.Dataset, r, k int) string {
	var parts []string
	for a := 0; a < k; a++ {
		parts = append(parts, fmt.Sprintf("%s=%s", d.Attr(a).Name(), d.Value(r, a)))
	}
	return strings.Join(parts, ",")
}

// openServedLabel builds a spilled label over the first 3 attributes,
// saves it, reopens the artifact, and serves it.
func openServedLabel(t *testing.T, d *dataset.Dataset) (inproc, reopened *core.Label, ts *httptest.Server) {
	t.Helper()
	s := lattice.FullSet(3)
	inproc = must(core.BuildLabel(d, s, core.CountOptions{
		MemBudget: 16 << 10, SpillDir: t.TempDir(),
	}))
	if !inproc.PC().Spilled() {
		t.Fatal("label did not spill; adjust the test shape")
	}
	dir := t.TempDir() + "/artifact"
	if err := artifact.SaveFS(inproc, dir, nil); err != nil {
		t.Fatal(err)
	}
	var m *artifact.Manifest
	var err error
	reopened, m, err = artifact.OpenFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalRows != d.NumRows() {
		t.Fatalf("manifest rows %d, want %d", m.TotalRows, d.NumRows())
	}
	ts = httptest.NewServer(NewHandler(reopened))
	t.Cleanup(ts.Close)
	t.Cleanup(reopened.ReleaseSpill)
	return inproc, reopened, ts
}

func TestServeIdentity(t *testing.T) {
	d := testDataset(t, 4000, 4, 300, 0x81)
	inproc, _, ts := openServedLabel(t, d)
	c := ts.Client()

	var info LabelInfo
	if code := getJSON(t, c, ts.URL+"/v1/label", &info); code != http.StatusOK {
		t.Fatalf("/v1/label: status %d", code)
	}
	if info.Size != inproc.Size() || info.TotalRows != d.NumRows() || !info.Spilled {
		t.Fatalf("label info %+v does not match the in-process label (size %d, rows %d)",
			info, inproc.Size(), d.NumRows())
	}

	rng := rand.New(rand.NewPCG(0x82, 0x5E2))
	for i := 0; i < 64; i++ {
		r := rng.IntN(d.NumRows())
		// Full label-set pattern: exact count from the PC section.
		full := exprFor(d, r, 3)
		p, err := core.NewPattern(d, mustParse(t, full))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := must2(inproc.CountCtx(nil, p))
		var cr CountResult
		if code := getJSON(t, c, ts.URL+"/v1/count?q="+url.QueryEscape(full), &cr); code != http.StatusOK {
			t.Fatalf("/v1/count %q: status %d", full, code)
		}
		if cr.Count != want || cr.Restricted {
			t.Fatalf("count %q: got (%d, restricted=%v), want (%d, false)", full, cr.Count, cr.Restricted, want)
		}

		// Pattern over all 4 attributes: reaches outside S, estimates.
		wide := exprFor(d, r, 4)
		wp, err := core.NewPattern(d, mustParse(t, wide))
		if err != nil {
			t.Fatal(err)
		}
		var er EstimateResult
		if code := getJSON(t, c, ts.URL+"/v1/estimate?q="+url.QueryEscape(wide), &er); code != http.StatusOK {
			t.Fatalf("/v1/estimate %q: status %d", wide, code)
		}
		if wantEst := inproc.Estimate(wp); er.Estimate != wantEst || er.Exact {
			t.Fatalf("estimate %q: got (%v, exact=%v), want (%v, false)", wide, er.Estimate, er.Exact, wantEst)
		}
	}

	// Marginal distribution over a subset must sum to counted rows and
	// match the in-process marginal entry for entry.
	var mr MarginalResult
	if code := getJSON(t, c, ts.URL+"/v1/marginal?attrs=a0,a1", &mr); code != http.StatusOK {
		t.Fatalf("/v1/marginal: status %d", code)
	}
	wantPC, _ := must2(inproc.MarginalPCCtx(nil, lattice.NewAttrSet(0, 1)))
	if len(mr.Patterns) != wantPC.Size() {
		t.Fatalf("marginal has %d patterns, want %d", len(mr.Patterns), wantPC.Size())
	}
	for _, e := range mr.Patterns {
		p, err := core.NewPattern(d, e.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := must2(inproc.CountCtx(nil, p)); e.Count != want {
			t.Fatalf("marginal %v: got %d, want %d", e.Pattern, e.Count, want)
		}
	}

	// Stats must reflect spilled reads.
	var st StatsResult
	if code := getJSON(t, c, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", code)
	}
	if !st.Spilled || st.HotHits+st.FloatingHits+st.RunLoads == 0 {
		t.Fatalf("stats %+v show no spilled read activity", st)
	}
}

func mustParse(t *testing.T, expr string) map[string]string {
	t.Helper()
	assign := map[string]string{}
	for _, part := range strings.Split(expr, ",") {
		kv := strings.SplitN(part, "=", 2)
		assign[kv[0]] = kv[1]
	}
	return assign
}

func TestServeConcurrentClients(t *testing.T) {
	d := testDataset(t, 4000, 4, 300, 0x83)
	inproc, _, ts := openServedLabel(t, d)
	c := ts.Client()

	type probe struct {
		url  string
		want int
	}
	rng := rand.New(rand.NewPCG(0x84, 0x5E3))
	probes := make([]probe, 64)
	for i := range probes {
		r := rng.IntN(d.NumRows())
		expr := exprFor(d, r, 3)
		p, err := core.NewPattern(d, mustParse(t, expr))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := must2(inproc.CountCtx(nil, p))
		probes[i] = probe{url: ts.URL + "/v1/count?q=" + url.QueryEscape(expr), want: want}
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, pr := range probes {
					resp, err := c.Get(pr.url)
					if err != nil {
						errs <- err
						return
					}
					var cr CountResult
					err = json.NewDecoder(resp.Body).Decode(&cr)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if cr.Count != pr.want {
						errs <- fmt.Errorf("probe %d: got %d, want %d", i, cr.Count, pr.want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServeErrors(t *testing.T) {
	d := testDataset(t, 4000, 4, 300, 0x85)
	_, _, ts := openServedLabel(t, d)
	c := ts.Client()

	cases := []struct {
		url  string
		want int
	}{
		{"/v1/count?q=" + url.QueryEscape("nosuch=attr"), http.StatusBadRequest},
		{"/v1/count?q=" + url.QueryEscape("a0=notavalue"), http.StatusBadRequest},
		{"/v1/count?q=" + url.QueryEscape("a0=v1,a3=v1"), http.StatusUnprocessableEntity}, // a3 outside S
		{"/v1/estimate?q=" + url.QueryEscape("=="), http.StatusBadRequest},
		{"/v1/marginal", http.StatusBadRequest},
		{"/v1/marginal?attrs=nosuch", http.StatusBadRequest},
		{"/v1/marginal?attrs=a3", http.StatusUnprocessableEntity},
		{"/healthz", http.StatusOK},
	}
	for _, tc := range cases {
		var out map[string]any
		if code := getJSON(t, c, ts.URL+tc.url, &out); code != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.url, code, tc.want, out)
		}
	}
}

// parseMetrics reads a Prometheus text exposition body into name→value,
// ignoring HELP/TYPE comment lines.
func parseMetrics(t *testing.T, body string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var v int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err != nil {
			t.Fatalf("unparseable metrics line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

func TestServeMetrics(t *testing.T) {
	d := testDataset(t, 4000, 4, 300, 0x91)
	_, _, ts := openServedLabel(t, d)
	c := ts.Client()

	// A few successful counts first, so the request and spill-read
	// counters have something to show.
	const queries = 5
	for i := 0; i < queries; i++ {
		var out map[string]any
		u := ts.URL + "/v1/count?q=" + url.QueryEscape(fmt.Sprintf("a0=v%d", i))
		if code := getJSON(t, c, u, &out); code != http.StatusOK {
			t.Fatalf("count %d: status %d (%v)", i, code, out)
		}
	}

	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q, want text/plain exposition", ct)
	}
	for _, want := range []string{"# HELP pcbl_requests_total", "# TYPE pcbl_requests_total counter"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics body missing %q:\n%s", want, body)
		}
	}
	m := parseMetrics(t, string(body))
	// The metrics request itself is counted too.
	if m["pcbl_requests_total"] < queries+1 {
		t.Fatalf("pcbl_requests_total = %d, want >= %d", m["pcbl_requests_total"], queries+1)
	}
	if m["pcbl_label_spilled"] != 1 {
		t.Fatalf("pcbl_label_spilled = %d on a merge-on-read label", m["pcbl_label_spilled"])
	}
	if m["pcbl_degraded"] != 0 || m["pcbl_read_failures_total"] != 0 || m["pcbl_recovered_panics_total"] != 0 {
		t.Fatalf("healthy label reports failure metrics: %v", m)
	}
	if m["pcbl_spill_run_loads_total"] < 1 {
		t.Fatalf("pcbl_spill_run_loads_total = %d after %d spilled counts", m["pcbl_spill_run_loads_total"], queries)
	}
	// The JSON stats surface stays alongside the scrape endpoint.
	var st StatsResult
	if code := getJSON(t, c, ts.URL+"/v1/stats", &st); code != http.StatusOK || !st.Spilled {
		t.Fatalf("/v1/stats after adding /metrics: code %d, %+v", code, st)
	}
}

// TestServeRejectsAttrBeyondColumn63 serves a label over a0,a1 of a
// 70-column schema. Naming a69 in a count, estimate or marginal query is a
// client error: it answers 400 and leaves the label healthy instead of
// tripping the panic recovery and flagging the label degraded.
func TestServeRejectsAttrBeyondColumn63(t *testing.T) {
	d := testDataset(t, 500, 70, 3, 0x70)
	dir := t.TempDir() + "/artifact"
	if err := artifact.SaveFS(must(core.BuildLabel(d, lattice.NewAttrSet(0, 1), core.CountOptions{Workers: 1})), dir, nil); err != nil {
		t.Fatal(err)
	}
	l, _, err := artifact.OpenFS(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(l))
	t.Cleanup(ts.Close)
	c := ts.Client()

	for _, u := range []string{
		"/v1/count?q=" + url.QueryEscape("a69=v1"),
		"/v1/estimate?q=" + url.QueryEscape("a0=v1,a69=v1"),
		"/v1/marginal?attrs=a69",
	} {
		var out map[string]any
		if code := getJSON(t, c, ts.URL+u, &out); code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), "column 69") {
			t.Errorf("%s: status %d (%v), want 400 naming column 69", u, code, out)
		}
	}
	var hr HealthResult
	if code := getJSON(t, c, ts.URL+"/healthz", &hr); code != http.StatusOK || hr.Status != "ok" || hr.RecoveredPanics != 0 {
		t.Fatalf("healthz after rejected queries: status %d, %+v", code, hr)
	}
	// The label still answers well-formed queries.
	if code := getJSON(t, c, ts.URL+"/v1/estimate?q="+url.QueryEscape("a0=v1,a63=v1"), nil); code != http.StatusOK {
		t.Errorf("estimate over a0,a63: status %d, want 200", code)
	}
}
