package core

import (
	"context"
	"errors"
)

// Cooperative cancellation for the counting engine. CountOptions.Ctx is
// adapted into a ctxStop — the same early-stop shape as the exceeded-flag
// machinery the sharded scans already consult at block boundaries: workers
// poll a single condition per row block (or per run) and quit their loop
// when it fires, the caller then reads the typed context error once at the
// merge point. The hot path never calls ctx.Err(): an unarmed engine (nil
// Ctx, or a context that can never be cancelled) carries a nil done
// channel, so the per-block check is one nil compare; an armed engine pays
// one non-blocking channel poll per keyBlockRows rows, which the
// cancellation-overhead benchmark pins at noise level.
//
// Cancellation is clean by construction: workers stop cooperatively (no
// panics across goroutines), deferred spill Cleanups run exactly as on the
// error paths, and the partial results of an interrupted scan are
// discarded by the caller the moment stop.err() reports non-nil — a torn
// label is never returned.

// ctxStop is the per-scan cancellation probe derived from
// CountOptions.Ctx.
type ctxStop struct {
	ctx  context.Context
	done <-chan struct{}
}

// stop derives the scan's cancellation probe. A nil Ctx — and any context
// whose Done returns nil, like context.Background() — yields an unarmed
// probe whose checks cost one nil compare.
func (o CountOptions) stop() ctxStop {
	if o.Ctx == nil {
		return ctxStop{}
	}
	return ctxStop{ctx: o.Ctx, done: o.Ctx.Done()}
}

// hit reports whether the context has fired; called at block/run/chunk
// boundaries inside worker loops.
func (c ctxStop) hit() bool {
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// err returns the context's error — context.Canceled or
// context.DeadlineExceeded once fired, nil otherwise. Callers check it
// once after a scan; a non-nil result discards the scan's partial state.
func (c ctxStop) err() error {
	if c.done == nil {
		return nil
	}
	return c.ctx.Err()
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline error. The spill fallback paths use it to keep the two error
// families apart: disk trouble degrades to the in-memory kernel,
// cancellation propagates to the caller.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
