// Package serve exposes a pattern count–based label over HTTP/JSON: the
// query daemon behind `pcbl serve`. A label is built once and consulted
// many times as dataset metadata — the paper's consumption model — so the
// handler is read-only and serves any number of concurrent clients; the
// underlying PC read path (including merge-on-read spilled indexes) is
// concurrent by design.
//
// Endpoints (GET unless noted):
//
//	/healthz             liveness probe
//	/v1/label            label metadata: dataset, attributes, size, bound
//	/v1/count?q=EXPR     exact restricted count c_D(p|S∩Attr(p)); the
//	                     pattern must constrain only label attributes
//	/v1/estimate?q=EXPR  Est(p, L) for an arbitrary pattern (Definition
//	                     2.11); exact when Attr(p) ⊆ S
//	/v1/marginal?attrs=a,b  the full count distribution over a subset of
//	                     the label attributes
//	/v1/stats            read-path counters of a spilled PC section
//	/metrics             the same counters in Prometheus text format
//	POST /v1/reload      atomically swap to the artifact's current label
//	                     generation (after `pcbl update`); in-flight
//	                     queries finish on the generation they started on
//
// Pattern expressions use the internal/patexpr grammar, e.g.
// q=gender=Female,race=Hispanic (URL-encoded). Errors return JSON
// {"error": "..."} with a 4xx status.
//
// The daemon degrades instead of dying: every request runs under
// panic-recovery middleware, and a failed spill-run read (an I/O error or
// a checksum mismatch on a corrupted run file, after the core's bounded
// retry) maps to 503 Service Unavailable with a Retry-After header — never
// a wrong count, never a dead process. /healthz is a deep check: it
// reports 503 "degraded" with the failure counters while the label is in
// that state, and flips back to 200 "ok" once a spill-path read succeeds
// again (a transient fault clears itself; persistent corruption keeps the
// label degraded until the artifact is repaired).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
	"pcbl/internal/patexpr"
)

// Limits configures the daemon's overload protection. The zero value means
// no admission control and no request timeout — the pre-limits behaviour.
type Limits struct {
	// RequestTimeout bounds each admitted query request: the handler runs
	// under a context with this deadline (composed with the client's
	// disconnect signal), and an expired deadline aborts in-flight spill
	// reads and answers 503 + Retry-After. Zero means no timeout.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently executing query requests; requests
	// beyond the cap wait in the queue. Zero means unlimited (no admission
	// control at all).
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for an in-flight slot;
	// arrivals beyond it are shed immediately with 429 + Retry-After.
	// Zero means a queue as deep as MaxInFlight.
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits for a slot
	// before it is shed with 503 + Retry-After. Zero means it waits until
	// the client gives up.
	QueueTimeout time.Duration
}

// queue resolves the effective queue depth.
func (lim Limits) queue() int {
	if lim.MaxQueue > 0 {
		return lim.MaxQueue
	}
	return lim.MaxInFlight
}

// labelState is one immutable label generation: the label, its dataset,
// and the artifact epoch it came from. Handlers load the pointer once per
// request and answer entirely from that snapshot, so a concurrent reload
// swapping in the next generation never mixes epochs within one response.
type labelState struct {
	l     *core.Label
	d     *dataset.Dataset
	epoch int64
}

// Handler answers label queries. Create with NewHandler (static label) or
// NewReloadableHandler (label that follows an updatable artifact).
type Handler struct {
	state  atomic.Pointer[labelState]
	reload func() (*core.Label, int64, error)
	mux    *http.ServeMux

	// Reloads are serialized: concurrent POST /v1/reload (or SIGHUP)
	// callers queue rather than racing two artifact opens.
	reloadMu sync.Mutex

	// Degradation state: degraded flips on when a spill-path read fails
	// and off when one succeeds, so /healthz tracks whether the label is
	// currently answering. The counters are cumulative for observability.
	degraded        atomic.Bool
	requests        atomic.Int64
	readFailures    atomic.Int64
	recoveredPanics atomic.Int64
	reloads         atomic.Int64
	lastErr         atomic.Value // string

	// Admission control (SetLimits): sem holds one token per in-flight
	// query request; nil means unlimited. Shed and cancellation counters
	// are cumulative. A cancelled or timed-out request is the client's
	// doing (or its deadline's), not the label's — it never marks the
	// label degraded.
	limits           Limits
	sem              chan struct{}
	queued           atomic.Int64
	shedQueueFull    atomic.Int64
	shedQueueTimeout atomic.Int64
	canceledRequests atomic.Int64
}

// NewHandler wraps a label (typically reopened from an artifact, but any
// in-process label works) in the HTTP query surface.
func NewHandler(l *core.Label) *Handler {
	return newHandler(l, 1, nil)
}

// NewReloadableHandler is NewHandler for a label that tracks an artifact
// that `pcbl update` advances in place: epoch is the artifact epoch the
// label was opened at, and reload — invoked by POST /v1/reload or the
// daemon's SIGHUP handler, serialized — reopens the artifact and returns
// the new label and epoch. The swap is atomic and lossless: requests in
// flight finish on the generation they started with, new requests see the
// new one, and a failed reload keeps the current generation serving. A
// spilled payload reads its run files by path; an update keeps the run
// directories of the generation it supersedes until the next update, so
// the old generation answers every query until then (reload once per
// update).
func NewReloadableHandler(l *core.Label, epoch int64, reload func() (*core.Label, int64, error)) *Handler {
	return newHandler(l, epoch, reload)
}

func newHandler(l *core.Label, epoch int64, reload func() (*core.Label, int64, error)) *Handler {
	h := &Handler{reload: reload, mux: http.NewServeMux()}
	h.state.Store(&labelState{l: l, d: l.Dataset(), epoch: epoch})
	h.mux.HandleFunc("GET /healthz", h.healthz)
	h.mux.HandleFunc("GET /v1/label", h.label)
	h.mux.HandleFunc("GET /v1/count", h.count)
	h.mux.HandleFunc("GET /v1/estimate", h.estimate)
	h.mux.HandleFunc("GET /v1/marginal", h.marginal)
	h.mux.HandleFunc("GET /v1/stats", h.stats)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	h.mux.HandleFunc("POST /v1/reload", h.reloadHTTP)
	return h
}

// Reload swaps in the next label generation via the reload callback,
// returning the epoch now serving. The daemon calls this on SIGHUP; POST
// /v1/reload is the same operation over HTTP.
func (h *Handler) Reload() (int64, error) {
	if h.reload == nil {
		return 0, fmt.Errorf("serve: handler has no reload source")
	}
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	l, epoch, err := h.reload()
	if err != nil {
		return h.state.Load().epoch, err
	}
	h.state.Store(&labelState{l: l, d: l.Dataset(), epoch: epoch})
	h.reloads.Add(1)
	return epoch, nil
}

// ReloadResult is the POST /v1/reload response.
type ReloadResult struct {
	Epoch     int64 `json:"epoch"`
	TotalRows int   `json:"total_rows"`
	Size      int   `json:"size"`
}

func (h *Handler) reloadHTTP(w http.ResponseWriter, r *http.Request) {
	if h.reload == nil {
		writeErr(w, http.StatusNotImplemented, "this daemon serves a static label (no artifact to reload)")
		return
	}
	if _, err := h.Reload(); err != nil {
		writeErr(w, http.StatusInternalServerError, "reload failed, previous label still serving: %v", err)
		return
	}
	st := h.state.Load()
	writeJSON(w, http.StatusOK, ReloadResult{Epoch: st.epoch, TotalRows: st.l.Rows(), Size: st.l.Size()})
}

// SetLimits installs overload protection: a request timeout and an
// in-flight cap with a bounded wait queue (see Limits). Call before the
// handler starts serving; /healthz and /metrics bypass admission so the
// daemon stays observable under overload. A zero Limits disables both
// mechanisms.
func (h *Handler) SetLimits(lim Limits) {
	h.limits = lim
	if lim.MaxInFlight > 0 {
		h.sem = make(chan struct{}, lim.MaxInFlight)
	} else {
		h.sem = nil
	}
}

// bypassAdmission reports probe/observability endpoints that must answer
// even when the query queue is full.
func bypassAdmission(path string) bool {
	return path == "/healthz" || path == "/metrics"
}

// admit applies the in-flight cap: it returns a release function when the
// request won a slot, or writes the shed response (429 queue full, 503
// queue timeout) and returns ok=false. A client that disconnects while
// queued is dropped silently.
func (h *Handler) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if h.sem == nil {
		return func() {}, true
	}
	release = func() { <-h.sem }
	select {
	case h.sem <- struct{}{}:
		return release, true
	default:
	}
	if q := h.queued.Add(1); int(q) > h.limits.queue() {
		h.queued.Add(-1)
		h.shedQueueFull.Add(1)
		w.Header().Set("Retry-After", retryAfter(h.limits))
		writeErr(w, http.StatusTooManyRequests, "server overloaded: admission queue full")
		return nil, false
	}
	defer h.queued.Add(-1)
	var timeout <-chan time.Time
	if h.limits.QueueTimeout > 0 {
		t := time.NewTimer(h.limits.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case h.sem <- struct{}{}:
		return release, true
	case <-timeout:
		h.shedQueueTimeout.Add(1)
		w.Header().Set("Retry-After", retryAfter(h.limits))
		writeErr(w, http.StatusServiceUnavailable, "server overloaded: no capacity within queue timeout")
		return nil, false
	case <-r.Context().Done():
		h.canceledRequests.Add(1)
		return nil, false // client gone; nothing to answer
	}
}

// retryAfter hints how long a shed client should back off: one queue
// timeout rounded up to a whole second, 1s when none is configured.
func retryAfter(lim Limits) string {
	secs := int(lim.QueueTimeout / time.Second)
	if lim.QueueTimeout > time.Duration(secs)*time.Second {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// ServeHTTP implements http.Handler. Every request runs under
// panic-recovery middleware: a panic escaping a handler — the last-resort
// failure mode for paths without an explicit error return — is recovered,
// counted, and answered with 503 instead of killing the daemon's
// connection-serving goroutine. Query requests additionally pass admission
// control and run under the configured request timeout (SetLimits);
// /healthz and /metrics bypass both.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.requests.Add(1)
	defer func() {
		if rec := recover(); rec != nil {
			h.recoveredPanics.Add(1)
			h.noteFailure(fmt.Errorf("recovered panic: %v", rec))
			// Best effort: if the handler already started the response the
			// status is on the wire, but no handler here streams partial
			// JSON bodies, so in practice the client sees the 503.
			writeDegraded(w, fmt.Errorf("internal failure: %v", rec))
		}
	}()
	if !bypassAdmission(r.URL.Path) {
		release, ok := h.admit(w, r)
		if !ok {
			return
		}
		defer release()
		if h.limits.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), h.limits.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
	}
	h.mux.ServeHTTP(w, r)
}

// noteFailure records one spill-path failure and marks the label degraded.
func (h *Handler) noteFailure(err error) {
	h.readFailures.Add(1)
	h.lastErr.Store(err.Error())
	h.degraded.Store(true)
}

// noteSuccess records one successful label read: a degraded label whose
// reads work again (a transient fault passed) is healthy.
func (h *Handler) noteSuccess() { h.degraded.Store(false) }

// readErr answers a failed label read, classifying the error family: a
// context error is the request's own cancellation or deadline — counted,
// answered 503 on timeout, dropped silently on disconnect, and never
// marking the label degraded — while disk trouble degrades as before.
func (h *Handler) readErr(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		h.canceledRequests.Add(1)
		if errors.Is(err, context.DeadlineExceeded) {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "request timed out: %v", err)
		}
		// Plain cancellation means the client disconnected; the response
		// would go nowhere.
		return
	}
	h.noteFailure(err)
	writeDegraded(w, err)
}

// writeDegraded answers a request whose label read failed: 503 with a
// Retry-After hint. The count is unknown, never wrong.
func writeDegraded(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":    err.Error(),
		"degraded": true,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// HealthResult is the /healthz response — a deep status, not a bare
// liveness probe: "degraded" (with 503) means label reads are failing and
// queries are answering 503, while the process itself stays up.
type HealthResult struct {
	Status          string `json:"status"` // "ok" or "degraded"
	Spilled         bool   `json:"spilled"`
	ReadFailures    int64  `json:"read_failures,omitempty"`
	SpillReadErrors int64  `json:"spill_read_errors,omitempty"`
	SpillRetries    int64  `json:"spill_retries,omitempty"`
	RecoveredPanics int64  `json:"recovered_panics,omitempty"`
	LastError       string `json:"last_error,omitempty"`
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	res := HealthResult{
		Status:          "ok",
		ReadFailures:    h.readFailures.Load(),
		RecoveredPanics: h.recoveredPanics.Load(),
	}
	if st, ok := h.state.Load().l.PC().SpillReadStats(); ok {
		res.Spilled = true
		res.SpillReadErrors = st.ReadErrors
		res.SpillRetries = st.Retries
	}
	if e, _ := h.lastErr.Load().(string); e != "" {
		res.LastError = e
	}
	status := http.StatusOK
	if h.degraded.Load() {
		res.Status = "degraded"
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, res)
}

// AttrInfo is one attribute's schema in the /v1/label response.
type AttrInfo struct {
	Name       string `json:"name"`
	DomainSize int    `json:"domain_size"`
}

// LabelInfo is the /v1/label response.
type LabelInfo struct {
	Dataset    string     `json:"dataset"`
	TotalRows  int        `json:"total_rows"`
	Epoch      int64      `json:"epoch"`
	Attributes []AttrInfo `json:"attributes"`
	LabelAttrs []string   `json:"label_attrs"`
	Size       int        `json:"size"`
	VCSize     int        `json:"vc_size"`
	Spilled    bool       `json:"spilled"`
}

func (h *Handler) label(w http.ResponseWriter, r *http.Request) {
	st := h.state.Load()
	info := LabelInfo{
		Dataset:    st.d.Name(),
		TotalRows:  st.l.Rows(),
		Epoch:      st.epoch,
		Attributes: make([]AttrInfo, st.d.NumAttrs()),
		LabelAttrs: st.attrNames(st.l.Attrs()),
		Size:       st.l.Size(),
		VCSize:     st.l.VCSize(),
		Spilled:    st.l.PC().Spilled(),
	}
	for i := range info.Attributes {
		a := st.d.Attr(i)
		info.Attributes[i] = AttrInfo{Name: a.Name(), DomainSize: a.DomainSize()}
	}
	writeJSON(w, http.StatusOK, info)
}

// parsePattern resolves the q parameter into a pattern over the label's
// schema. A missing q is the empty pattern.
func (st *labelState) parsePattern(r *http.Request) (core.Pattern, error) {
	assign, err := patexpr.Parse(r.FormValue("q"))
	if err != nil {
		return core.Pattern{}, err
	}
	return core.NewPattern(st.d, assign)
}

// CountResult is the /v1/count response.
type CountResult struct {
	Pattern map[string]string `json:"pattern"`
	Count   int               `json:"count"`
	// Restricted reports whether the pattern was a proper subset of the
	// label attributes (served by a marginal index) rather than the full
	// set.
	Restricted bool `json:"restricted"`
}

func (h *Handler) count(w http.ResponseWriter, r *http.Request) {
	st := h.state.Load()
	p, err := st.parsePattern(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, ok, cerr := st.l.CountCtx(r.Context(), p)
	if cerr != nil {
		h.readErr(w, r, cerr)
		return
	}
	if !ok {
		writeErr(w, http.StatusUnprocessableEntity,
			"pattern constrains attributes outside the label set %v; use /v1/estimate", st.attrNames(st.l.Attrs()))
		return
	}
	h.noteSuccess()
	writeJSON(w, http.StatusOK, CountResult{
		Pattern:    st.patternAssign(p),
		Count:      c,
		Restricted: p.Attrs() != st.l.Attrs(),
	})
}

// EstimateResult is the /v1/estimate response.
type EstimateResult struct {
	Pattern  map[string]string `json:"pattern"`
	Estimate float64           `json:"estimate"`
	// Exact reports Attr(p) ⊆ S: the estimate is then a true count.
	Exact bool `json:"exact"`
}

func (h *Handler) estimate(w http.ResponseWriter, r *http.Request) {
	st := h.state.Load()
	p, err := st.parsePattern(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	est, eerr := st.l.EstimateCtx(r.Context(), p)
	if eerr != nil {
		h.readErr(w, r, eerr)
		return
	}
	h.noteSuccess()
	writeJSON(w, http.StatusOK, EstimateResult{
		Pattern:  st.patternAssign(p),
		Estimate: est,
		Exact:    p.Attrs().Diff(st.l.Attrs()).IsEmpty(),
	})
}

// MarginalEntry is one pattern of a /v1/marginal distribution.
type MarginalEntry struct {
	Pattern map[string]string `json:"pattern"`
	Count   int               `json:"count"`
}

// MarginalResult is the /v1/marginal response.
type MarginalResult struct {
	Attrs    []string        `json:"attrs"`
	Patterns []MarginalEntry `json:"patterns"`
}

func (h *Handler) marginal(w http.ResponseWriter, r *http.Request) {
	st := h.state.Load()
	raw := strings.TrimSpace(r.FormValue("attrs"))
	if raw == "" {
		writeErr(w, http.StatusBadRequest, "missing attrs parameter (comma-separated label attributes)")
		return
	}
	parts := strings.Split(raw, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	sub, err := lattice.FromNames(st.d.AttrNames(), parts...)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	pc, ok, merr := st.l.MarginalPCCtx(r.Context(), sub)
	if merr != nil {
		h.readErr(w, r, merr)
		return
	}
	if !ok {
		writeErr(w, http.StatusUnprocessableEntity,
			"attrs must be a non-empty subset of the label set %v", st.attrNames(st.l.Attrs()))
		return
	}
	res := MarginalResult{Attrs: st.attrNames(sub), Patterns: make([]MarginalEntry, 0, pc.Size())}
	members := sub.Members()
	if err := pc.EachCtx(r.Context(), st.d.NumAttrs(), func(vals []uint16, count int) bool {
		assign := make(map[string]string, len(members))
		for _, a := range members {
			assign[st.d.Attr(a).Name()] = st.d.Attr(a).Value(vals[a])
		}
		res.Patterns = append(res.Patterns, MarginalEntry{Pattern: assign, Count: count})
		return true
	}); err != nil {
		h.readErr(w, r, err)
		return
	}
	h.noteSuccess()
	writeJSON(w, http.StatusOK, res)
}

// StatsResult is the /v1/stats response: read-path counters of the PC
// section when it is merge-on-read (all zero otherwise), plus the
// admission-control counters (all zero without SetLimits).
type StatsResult struct {
	Spilled      bool  `json:"spilled"`
	HotHits      int64 `json:"hot_hits"`
	FloatingHits int64 `json:"floating_hits"`
	RunLoads     int64 `json:"run_loads"`
	ReadErrors   int64 `json:"read_errors"`
	Retries      int64 `json:"retries"`

	// InFlight and Queued are point-in-time gauges of the admission
	// semaphore; the Shed counters total requests rejected 429 (queue
	// full) and 503 (queue timeout); CanceledRequests totals requests
	// aborted by their own context — client disconnects and request
	// timeouts — which never mark the label degraded.
	InFlight         int   `json:"in_flight"`
	Queued           int   `json:"queued"`
	ShedQueueFull    int64 `json:"shed_queue_full"`
	ShedQueueTimeout int64 `json:"shed_queue_timeout"`
	CanceledRequests int64 `json:"canceled_requests"`
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	res := StatsResult{
		Queued:           int(h.queued.Load()),
		ShedQueueFull:    h.shedQueueFull.Load(),
		ShedQueueTimeout: h.shedQueueTimeout.Load(),
		CanceledRequests: h.canceledRequests.Load(),
	}
	if h.sem != nil {
		res.InFlight = len(h.sem)
	}
	if st, ok := h.state.Load().l.PC().SpillReadStats(); ok {
		res.Spilled = true
		res.HotHits = st.HotHits
		res.FloatingHits = st.FloatingHits
		res.RunLoads = st.RunLoads
		res.ReadErrors = st.ReadErrors
		res.Retries = st.Retries
	}
	writeJSON(w, http.StatusOK, res)
}

// metrics answers GET /metrics in the Prometheus text exposition format
// (version 0.0.4): the same cumulative counters /healthz and /v1/stats
// report as JSON, named for scraping. Counters end in _total; pcbl_degraded
// and pcbl_label_spilled are 0/1 gauges. The JSON surfaces stay — this is
// an additional view, not a replacement.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	gauge := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	write := func(name, typ, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
	}
	write("pcbl_requests_total", "counter",
		"HTTP requests handled by the label daemon.", h.requests.Load())
	write("pcbl_read_failures_total", "counter",
		"Label reads that failed after the bounded retry and answered 503.", h.readFailures.Load())
	write("pcbl_recovered_panics_total", "counter",
		"Handler panics recovered by the middleware.", h.recoveredPanics.Load())
	write("pcbl_degraded", "gauge",
		"1 while the last label read failed and /healthz reports degraded.", gauge(h.degraded.Load()))
	inflight := 0
	if h.sem != nil {
		inflight = len(h.sem)
	}
	write("pcbl_inflight_requests", "gauge",
		"Query requests currently holding an admission slot.", int64(inflight))
	write("pcbl_queued_requests", "gauge",
		"Query requests currently waiting for an admission slot.", h.queued.Load())
	write("pcbl_shed_queue_full_total", "counter",
		"Requests rejected 429 because the admission queue was full.", h.shedQueueFull.Load())
	write("pcbl_shed_queue_timeout_total", "counter",
		"Requests rejected 503 after waiting the full queue timeout.", h.shedQueueTimeout.Load())
	write("pcbl_canceled_requests_total", "counter",
		"Requests aborted by client disconnect or request timeout.", h.canceledRequests.Load())
	ls := h.state.Load()
	write("pcbl_label_epoch", "gauge",
		"Artifact epoch of the label generation currently serving.", ls.epoch)
	write("pcbl_reloads_total", "counter",
		"Label generations swapped in by /v1/reload or SIGHUP.", h.reloads.Load())
	st, spilled := ls.l.PC().SpillReadStats()
	write("pcbl_label_spilled", "gauge",
		"1 when the label serves merge-on-read spill runs from disk.", gauge(spilled))
	if spilled {
		write("pcbl_spill_hot_hits_total", "counter",
			"Spilled-label lookups answered from the pinned hot run.", st.HotHits)
		write("pcbl_spill_floating_hits_total", "counter",
			"Spilled-label lookups answered from an already-loaded floating run.", st.FloatingHits)
		write("pcbl_spill_run_loads_total", "counter",
			"Spill run files loaded (or re-streamed) from disk.", st.RunLoads)
		write("pcbl_spill_read_errors_total", "counter",
			"Failed spill-run read attempts, failed retries included.", st.ReadErrors)
		write("pcbl_spill_retries_total", "counter",
			"Bounded retries of failed spill-run reads.", st.Retries)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String()))
}

func (st *labelState) attrNames(s lattice.AttrSet) []string {
	members := s.Members()
	out := make([]string, len(members))
	for i, a := range members {
		out[i] = st.d.Attr(a).Name()
	}
	return out
}

func (st *labelState) patternAssign(p core.Pattern) map[string]string {
	out := make(map[string]string, p.Attrs().Size())
	for _, a := range p.Attrs().Members() {
		out[st.d.Attr(a).Name()] = st.d.Attr(a).Value(p.ValueID(a))
	}
	return out
}
