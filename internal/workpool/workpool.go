// Package workpool provides the small chunked work-pool primitives shared
// by the counting engine (internal/core), the label search
// (internal/search) and the sampling baseline (internal/sampling): worker
// count resolution, contiguous range sharding for dataset scans, and
// atomic-counter task dispatch for independent work items.
//
// The helpers are deliberately tiny — plain goroutines and a WaitGroup, no
// channels — so the per-scan overhead stays negligible next to the row
// loops they wrap.
package workpool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a requested worker count onto an effective one for n work
// items: 0 (or negative) means runtime.NumCPU(), the result never exceeds
// n, and it is never smaller than 1.
func Resolve(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Chunk is a half-open index range [Lo, Hi).
type Chunk struct{ Lo, Hi int }

// Chunks splits [0, n) into at most parts contiguous near-equal ranges.
// Every range is non-empty; fewer than parts ranges are returned when
// n < parts.
func Chunks(n, parts int) []Chunk {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([]Chunk, parts)
	lo := 0
	for i := range out {
		hi := lo + (n-lo)/(parts-i)
		out[i] = Chunk{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// RunChunks partitions [0, n) into one contiguous chunk per worker and
// invokes fn(w, lo, hi) for chunk w on its own goroutine, blocking until
// every invocation returns. fn is called with w in [0, k) for k =
// min(workers, n) distinct chunks; it is never called for an empty range.
// This is the sharding primitive of the counting engine: each worker fills
// private state for its row range and the caller merges afterwards.
func RunChunks(n, workers int, fn func(w, lo, hi int)) {
	chunks := Chunks(n, workers)
	if len(chunks) == 0 {
		return
	}
	if len(chunks) == 1 {
		fn(0, chunks[0].Lo, chunks[0].Hi)
		return
	}
	var wg sync.WaitGroup
	for w, c := range chunks {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, c.Lo, c.Hi)
	}
	wg.Wait()
}

// Do runs fn(i) for every i in [0, n) on up to workers goroutines,
// load-balanced through an atomic counter, blocking until all invocations
// return. Unlike RunChunks the assignment of items to goroutines is
// dynamic, which suits work items of very uneven cost (candidate label
// evaluation, per-attribute-set index builds).
func Do(n, workers int, fn func(i int)) { DoCtx(nil, n, workers, fn) }

// DoCtx is Do with cooperative cancellation: once ctx is done no further
// items are dispatched, in-flight fn calls run to completion, and the
// context's error is returned. Items are the cancellation quantum — fn
// itself is never interrupted — which matches the coarse work items Do is
// used for (candidate evaluation, per-set builds). A nil ctx never
// cancels: its done channel is nil and the per-item poll a single nil
// compare.
func DoCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var next atomic.Int64
	work := func() {
		for {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	if workers = Resolve(workers, n); workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
