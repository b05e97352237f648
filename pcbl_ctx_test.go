package pcbl

// Facade-level cancellation and deadline contract: GenerateCtx /
// BuildLabelCtx return the typed context error when their context fires,
// an expired deadline included, and ErrNoSpace classifies disk exhaustion
// through the facade.

import (
	"context"
	"errors"
	"io/fs"
	"syscall"
	"testing"
	"time"

	"pcbl/internal/spill"
	"pcbl/internal/testutil"
)

func TestGenerateCtxCancelled(t *testing.T) {
	testutil.CheckGoroutines(t)
	d := testutil.Fig2()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := GenerateCtx(ctx, d, GenerateOptions{Bound: 5, Engine: EngineOptions{Workers: 2}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestGenerateTimeoutExpired(t *testing.T) {
	testutil.CheckGoroutines(t)
	d := testutil.Fig2()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := GenerateCtx(ctx, d, GenerateOptions{Bound: 5, Engine: EngineOptions{Workers: 2}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestBuildLabelCtxCancelled(t *testing.T) {
	d := testutil.Fig2()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildLabelCtx(ctx, d, "age group", "marital status"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The same build succeeds with a live context.
	l, err := BuildLabelCtx(context.Background(), d, "age group", "marital status")
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() == 0 {
		t.Fatal("live-context build returned an empty label")
	}
}

func TestErrNoSpaceIdentity(t *testing.T) {
	// The facade's ErrNoSpace is the engine's: a wrapped ENOSPC from any
	// layer matches through the re-export.
	enospc := &fs.PathError{Op: "write", Path: "run-0001", Err: syscall.ENOSPC}
	if !errors.Is(spill.WrapNoSpace(enospc), ErrNoSpace) {
		t.Fatal("wrapped ENOSPC does not match pcbl.ErrNoSpace")
	}
}
