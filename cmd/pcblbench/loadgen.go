package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// serveInProcess answers one request through ServeHTTP, checks it, and
// returns its latency.
func (b *bench) serveInProcess(h http.Handler, r *request) time.Duration {
	req := httptest.NewRequest(http.MethodGet, r.path, nil)
	rec := httptest.NewRecorder()
	lo := int(b.servingLo.Load())
	t := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t)
	b.judge(r, rec.Code, rec.Body.Bytes(), lo, int(b.servingHi.Load()))
	return d
}

// judge counts one answered query: a shed (429/503) or any other failure
// counts as failed, a 200 whose answer the oracle rejects as wrong.
func (b *bench) judge(r *request, status int, body []byte, lo, hi int) bool {
	b.attempted.Add(1)
	switch {
	case status == http.StatusOK:
		if b.orc.matches(r, body, lo, hi) {
			return true
		}
		if b.wrong.Add(1) <= 3 {
			fmt.Fprintf(b.cfg.log, "pcblbench: %s: wrong answer to %s at epochs %d..%d: %s", b.w.name, r.path, lo, hi, body)
		}
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		b.shed.Add(1)
	default:
		fmt.Fprintf(b.cfg.log, "pcblbench: %s: %s answered %d: %s", b.w.name, r.path, status, body)
	}
	b.failed.Add(1)
	return false
}

// get sends pool request i over HTTP and judges the answer.
func (b *bench) get(i int, buf *bytes.Buffer) bool {
	lo := int(b.servingLo.Load())
	resp, err := b.client.Get(b.urls[i])
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		b.attempted.Add(1)
		b.failed.Add(1)
		fmt.Fprintf(b.cfg.log, "pcblbench: %s: %v\n", b.w.name, err)
		return false
	}
	return b.judge(&b.pool[i], resp.StatusCode, buf.Bytes(), lo, int(b.servingHi.Load()))
}

// closedLoop runs `clients` callers that each send the next pool request
// as soon as the previous answer arrives, for d; beside, when set, runs
// concurrently. It returns the requests answered correctly, the time the
// callers took and every latency in µs.
func (b *bench) closedLoop(d time.Duration, beside func(time.Duration) error) (int64, time.Duration, []float64, error) {
	var next, answered atomic.Int64
	var besideErr error
	var writer sync.WaitGroup
	if beside != nil {
		writer.Add(1)
		go func() {
			defer writer.Done()
			besideErr = beside(d)
		}()
	}
	per := make([][]float64, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g := range per {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(b.pool)
				t := time.Now()
				if b.get(i, &buf) {
					answered.Add(1)
				}
				per[g] = append(per[g], us(time.Since(t)))
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	writer.Wait()
	var lat []float64
	for _, p := range per {
		lat = append(lat, p...)
	}
	return answered.Load(), elapsed, lat, besideErr
}

// openLoop sends the pool at the workload's fixed rate for d whatever the
// answers' pace, over `clients` connections. Each latency is timed from
// when its request was due, so a stall also delays the requests queued
// behind it; a failed request counts as infinitely slow. It returns the
// latencies and how late the generator ran, both in µs.
func (b *bench) openLoop(d time.Duration) (lat, lags []float64) {
	n := max(int(b.w.rate*d.Seconds()), 1)
	interval := time.Duration(float64(time.Second) / b.w.rate)
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // one slot per send: the pacer never blocks
	per := make([][]float64, clients)
	start := time.Now()
	giveUp := start.Add(d + drainGrace)
	var wg sync.WaitGroup
	for g := range per {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				ok := false
				if time.Now().Before(giveUp) {
					ok = b.get(j.i%len(b.pool), &buf)
				} else {
					b.attempted.Add(1)
					b.failed.Add(1)
				}
				l := math.Inf(1)
				if ok {
					l = us(time.Since(j.due))
				}
				per[g] = append(per[g], l)
			}
		}(g)
	}
	lags = make([]float64, 0, n)
	// The pacer keeps one thread with a 1 µs timer slack (the default is
	// 50 µs), so sends leave within microseconds of their due time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	for i := 0; i < n; {
		now := time.Now()
		for ; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			if due.After(now) {
				break
			}
			lags = append(lags, us(now.Sub(due)))
			jobs <- job{i, due}
		}
		if i < n {
			waitUntil(start.Add(time.Duration(i) * interval))
		}
	}
	close(jobs)
	wg.Wait()
	for _, p := range per {
		lat = append(lat, p...)
	}
	return lat, lags
}

const prSetTimerSlack = 29 // prctl(2) option, from linux/prctl.h

// waitUntil returns at t. time.Sleep wakes about 1 ms late on Linux (the
// runtime's timers wait in epoll, at millisecond resolution), more than
// the gap between sends at the offered rates; nanosleep blocks only this
// goroutine's thread and wakes tens of µs late, without spinning.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only adds lag
	}
}
