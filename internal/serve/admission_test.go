package serve

// Overload behaviour of the daemon: beyond MaxInFlight requests queue,
// beyond the queue they shed 429, beyond QueueTimeout they shed 503 — both
// with Retry-After — while in-flight requests run to completion and the
// observability endpoints keep answering. Request timeouts and client
// disconnects abort in-flight label reads with the request's own context
// error and never mark the label degraded.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"pcbl/internal/core"
	"pcbl/internal/lattice"
	"pcbl/internal/testutil"
)

// limitedServer serves a small in-memory label under the given limits and
// returns the handler for white-box inspection of the admission state.
func limitedServer(t *testing.T, lim Limits) (h *Handler, ts *httptest.Server) {
	t.Helper()
	d := testDataset(t, 500, 3, 8, 0xA1)
	l := must(core.BuildLabel(d, lattice.FullSet(3), core.CountOptions{Workers: 1}))
	h = NewHandler(l)
	h.SetLimits(lim)
	ts = httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return h, ts
}

// occupySlot takes one in-flight slot directly, standing in for a slow
// request holding it, and returns its release.
func occupySlot(h *Handler) (release func()) {
	h.sem <- struct{}{}
	return func() { <-h.sem }
}

// waitQueued blocks until n requests are waiting in the admission queue.
func waitQueued(t *testing.T, h *Handler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.queued.Load() != int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", h.queued.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOverloadShedsQueueFull429(t *testing.T) {
	testutil.CheckGoroutines(t)
	h, ts := limitedServer(t, Limits{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: time.Minute})
	c := ts.Client()
	release := occupySlot(h)

	// One request fits in the queue and waits for the slot...
	queued := make(chan int, 1)
	go func() {
		resp, err := c.Get(ts.URL + "/v1/count?q=" + url.QueryEscape("a0=v1"))
		if err != nil {
			queued <- -1
			return
		}
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	waitQueued(t, h, 1)

	// ...so the next arrival is shed immediately with 429 + Retry-After.
	resp, err := c.Get(ts.URL + "/v1/count?q=" + url.QueryEscape("a0=v1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "60" {
		t.Fatalf("Retry-After = %q, want %q (one queue timeout)", ra, "60")
	}

	// Observability bypasses admission even now.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := c.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s under overload: status %d, want 200", path, resp.StatusCode)
		}
	}

	// Releasing the slot lets the queued request complete normally.
	release()
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued request finished with %d, want 200", code)
	}

	var st StatsResult
	if code := getJSON(t, c, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", code)
	}
	if st.ShedQueueFull != 1 || st.ShedQueueTimeout != 0 || st.Queued != 0 {
		t.Fatalf("stats after queue-full shed: %+v", st)
	}
}

func TestOverloadShedsQueueTimeout503(t *testing.T) {
	testutil.CheckGoroutines(t)
	h, ts := limitedServer(t, Limits{MaxInFlight: 1, QueueTimeout: 30 * time.Millisecond})
	c := ts.Client()
	release := occupySlot(h)
	defer release()

	resp, err := c.Get(ts.URL + "/v1/count?q=" + url.QueryEscape("a0=v1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-timeout status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want %q", ra, "1")
	}
	if h.shedQueueTimeout.Load() != 1 {
		t.Fatalf("shedQueueTimeout = %d, want 1", h.shedQueueTimeout.Load())
	}
	if h.queued.Load() != 0 {
		t.Fatalf("queued = %d after shed, want 0", h.queued.Load())
	}
}

func TestQueuedClientDisconnectDropsSilently(t *testing.T) {
	testutil.CheckGoroutines(t)
	h, ts := limitedServer(t, Limits{MaxInFlight: 1, QueueTimeout: time.Minute})
	release := occupySlot(h)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/count?q="+url.QueryEscape("a0=v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		done <- err
	}()
	waitQueued(t, h, 1)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request returned a response")
	}
	waitQueued(t, h, 0)
	deadline := time.Now().Add(5 * time.Second)
	for h.canceledRequests.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("canceledRequests = %d, want 1", h.canceledRequests.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if h.shedQueueFull.Load() != 0 || h.shedQueueTimeout.Load() != 0 {
		t.Fatal("client disconnect was counted as a shed")
	}
}

func TestRequestTimeoutAbortsSpillReadWithoutDegrading(t *testing.T) {
	d := testDataset(t, 4000, 4, 300, 0xA2)
	_, reopened, _ := openServedLabel(t, d)
	// openServedLabel wires its own handler; serve the same reopened label
	// through a second handler with limits so the first spilled read runs
	// under an already-expired deadline.
	lh := NewHandler(reopened)
	lh.SetLimits(Limits{RequestTimeout: time.Nanosecond})
	lts := httptest.NewServer(lh)
	defer lts.Close()
	c := lts.Client()

	resp, err := c.Get(lts.URL + "/v1/count?q=" + url.QueryEscape(exprFor(d, 0, 3)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out spilled count: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("timed-out response missing Retry-After")
	}
	if lh.canceledRequests.Load() == 0 {
		t.Fatal("request timeout not counted in canceledRequests")
	}

	// The label is NOT degraded — the deadline was the request's, not the
	// disk's — and a healthz probe (admission bypass) says so.
	if lh.degraded.Load() {
		t.Fatal("request timeout marked the label degraded")
	}
	var hr HealthResult
	if code := getJSON(t, c, lts.URL+"/healthz", &hr); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthz after request timeouts: code %d, %+v", code, hr)
	}
	if hr.SpillReadErrors != 0 {
		t.Fatalf("request timeout metered as %d spill read errors", hr.SpillReadErrors)
	}
}

func TestOverloadMetricsExposed(t *testing.T) {
	h, ts := limitedServer(t, Limits{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 20 * time.Millisecond})
	c := ts.Client()
	release := occupySlot(h)
	// One queue-timeout shed to move the counter.
	resp, err := c.Get(ts.URL + "/v1/count?q=" + url.QueryEscape("a0=v1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	release()

	mresp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body := make([]byte, 1<<16)
	n, _ := mresp.Body.Read(body)
	m := parseMetrics(t, string(body[:n]))
	for name, want := range map[string]int64{
		"pcbl_shed_queue_timeout_total": 1,
		"pcbl_shed_queue_full_total":    0,
		"pcbl_queued_requests":          0,
		"pcbl_inflight_requests":        0,
	} {
		if m[name] != want {
			t.Errorf("%s = %d, want %d", name, m[name], want)
		}
	}
	if _, ok := m["pcbl_canceled_requests_total"]; !ok {
		t.Error("pcbl_canceled_requests_total missing from /metrics")
	}
}
