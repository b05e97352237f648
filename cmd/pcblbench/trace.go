package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer (or one benchmark phase, the parent
// of the calls it makes). Offsets are from the tracer's start.
type span struct {
	name       string
	phase      string
	parent     int // index of the parent span, -1 for a phase
	start, end time.Duration
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing: end-to-end metrics come from untraced runs.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id, -1 on a nil tracer.
func (t *tracer) begin(name, phase string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, phase, parent, time.Since(t.t0), -1)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span with known bounds: the phases a layer times itself
// (the search's enumeration and evaluation) become child spans this way.
func (t *tracer) add(name, phase string, parent int, start, end time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, phase: phase, parent: parent, start: start, end: end})
	return len(t.spans) - 1
}

func (t *tracer) at(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// durations returns the durations in ms of every span with this name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// unaccounted returns the share of the named phase spans' time that no
// child span covers. Children of one phase run one after another.
func (t *tracer) unaccounted(phase string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total, covered time.Duration
	for i, s := range t.spans {
		if s.name != phase || s.parent != -1 {
			continue
		}
		total += s.end - s.start
		for _, c := range t.spans {
			if c.parent == i {
				covered += c.end - c.start
			}
		}
	}
	return frac(float64(total-covered), float64(total))
}

// printSelfTimes writes each span name's self time, summed over the run:
// its duration minus the part its child spans cover.
func (t *tracer) printSelfTimes(w io.Writer) {
	t.mu.Lock()
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.name] += s.end - s.start
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= s.end - s.start
		}
	}
	t.mu.Unlock()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%s: self time by span, ms\n", t.workload)
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %12.3f\n", n, ms(self[n]))
	}
}

// traceEvent is one Chrome trace-event "complete" event; Perfetto and
// chrome://tracing open a file of them.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// write saves the spans to path in Chrome trace-event format.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		// Updates get their own track: on serve-under-update they run
		// beside the serve phase.
		tid := 1
		if strings.HasPrefix(s.phase, "update") {
			tid = 2
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: s.phase, Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: tid,
			Args: map[string]string{"phase": s.phase, "parent": parent, "workload": t.workload},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
