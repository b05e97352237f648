package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/patexpr"
)

// FuzzServeQuery sends arbitrary q= and attrs= strings to the query
// routes of a handler over a small in-memory label. The handler must not
// panic (a recovered panic answers 503), must answer 200, 400 or 422, and
// every 200 answer must equal the in-process label's answer to the same
// query.
func FuzzServeQuery(f *testing.F) {
	bld := dataset.NewBuilder("fuzz", "a0", "a1", "a2", "a3")
	for r := 0; r < 300; r++ {
		a3 := fmt.Sprintf("v%d", r%2)
		if r%7 == 0 {
			a3 = "" // NULL
		}
		bld.AppendStrings(fmt.Sprintf("v%d", r%3), fmt.Sprintf("v%d", r*r%4), fmt.Sprintf("v%d", r%5), a3)
	}
	d, err := bld.Build()
	if err != nil {
		f.Fatal(err)
	}
	l, err := core.BuildLabel(d, lattice.NewAttrSet(0, 1, 2), core.CountOptions{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	h := NewHandler(l)

	f.Add("", "")
	f.Add("a0=v1, a0=v2", "a0,a0")
	f.Add("a1=nope", "a1")
	f.Add("a0=v0 AND a3=v1", "a0,,a1")
	f.Fuzz(func(t *testing.T, q, attrs string) {
		query := url.Values{"q": {q}, "attrs": {attrs}}.Encode()
		for _, route := range []string{"/v1/count", "/v1/estimate", "/v1/marginal"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, route+"?"+query, nil))
			switch rec.Code {
			case http.StatusOK:
			case http.StatusBadRequest, http.StatusUnprocessableEntity:
				continue
			default:
				t.Fatalf("%s?%s: status %d: %s", route, query, rec.Code, rec.Body)
			}
			switch route {
			case "/v1/count":
				var got CountResult
				decodeBody(t, rec, &got)
				want, ok, err := l.CountCtx(nil, fuzzPattern(t, d, q))
				if err != nil || !ok || got.Count != want {
					t.Fatalf("count %q: served %d, label (%d, %v, %v)", q, got.Count, want, ok, err)
				}
			case "/v1/estimate":
				var got EstimateResult
				decodeBody(t, rec, &got)
				want, err := l.EstimateCtx(nil, fuzzPattern(t, d, q))
				if err != nil || got.Estimate != want {
					t.Fatalf("estimate %q: served %v, label (%v, %v)", q, got.Estimate, want, err)
				}
			case "/v1/marginal":
				var got MarginalResult
				decodeBody(t, rec, &got)
				if served, want := marginalCounts(got.Patterns), fuzzMarginal(t, d, l, attrs); served != want {
					t.Fatalf("marginal %q: served %s, label %s", attrs, served, want)
				}
			}
		}
	})
}

func decodeBody(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body, err)
	}
}

// fuzzPattern parses q the way a client means it; the handler answered
// 200, so it must parse.
func fuzzPattern(t *testing.T, d *dataset.Dataset, q string) core.Pattern {
	t.Helper()
	assign, err := patexpr.Parse(q)
	if err != nil {
		t.Fatalf("served 200 for unparsable q %q: %v", q, err)
	}
	p, err := core.NewPattern(d, assign)
	if err != nil {
		t.Fatalf("served 200 for q %q outside the schema: %v", q, err)
	}
	return p
}

// fuzzMarginal is the label's marginal over the comma-separated attrs, in
// marginalCounts' form.
func fuzzMarginal(t *testing.T, d *dataset.Dataset, l *core.Label, attrs string) string {
	t.Helper()
	parts := strings.Split(strings.TrimSpace(attrs), ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	sub, err := lattice.FromNames(d.AttrNames(), parts...)
	if err != nil {
		t.Fatalf("served 200 for attrs %q: %v", attrs, err)
	}
	pc, ok, err := l.MarginalPCCtx(nil, sub)
	if err != nil || !ok {
		t.Fatalf("served 200 for attrs %q: label (%v, %v)", attrs, ok, err)
	}
	var entries []MarginalEntry
	if err := pc.EachCtx(nil, d.NumAttrs(), func(vals []uint16, count int) bool {
		assign := make(map[string]string)
		for _, a := range sub.Members() {
			assign[d.Attr(a).Name()] = d.Attr(a).Value(vals[a])
		}
		entries = append(entries, MarginalEntry{Pattern: assign, Count: count})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return marginalCounts(entries)
}

// marginalCounts renders a marginal distribution in a canonical order.
func marginalCounts(entries []MarginalEntry) string {
	lines := make([]string, len(entries))
	for i, e := range entries {
		keys := make([]string, 0, len(e.Pattern))
		for k := range e.Pattern {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%q=%q,", k, e.Pattern[k])
		}
		fmt.Fprintf(&b, "%d", e.Count)
		lines[i] = b.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
