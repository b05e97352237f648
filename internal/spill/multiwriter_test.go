package spill

// MultiWriter is pure multiplexing: the run files it produces for each
// target must be byte-identical to what a standalone Writer with the same
// buffer size produces from the same record stream, per-target lifecycles
// must be independent (eager CleanupTarget, idempotent Cleanup), and the
// shared buffer budget must bound the per-run flush buffers across all
// targets together.

import (
	"bytes"
	"os"
	"testing"
)

// multiTargetShape is one heterogeneous target: its own width, fan-out and
// key population.
type multiTargetShape struct {
	width, runs, distinct int
}

var multiShapes = []multiTargetShape{
	{width: 6, runs: 3, distinct: 50},
	{width: 8, runs: 5, distinct: 200},
	{width: 10, runs: 4, distinct: 100},
}

func TestMultiWriterMatchesStandalone(t *testing.T) {
	const n = 5000
	recs := make([][][]byte, len(multiShapes))
	refs := make([]map[string]int, len(multiShapes))
	cfgs := make([]Config, len(multiShapes))
	for i, sh := range multiShapes {
		recs[i], refs[i] = genRecords(n, sh.distinct, sh.width, 0xA0^uint64(i))
		cfgs[i] = Config{RecWidth: sh.width, Runs: sh.runs}
	}
	mw := NewMultiWriter(cfgs, 8<<10)
	defer mw.Cleanup()
	ms := mw.Shard()
	for r := 0; r < n; r++ {
		for i := range multiShapes {
			ms.Add(i, recs[i][r])
		}
	}
	ms.Close()

	for i, sh := range multiShapes {
		if err := mw.Err(i); err != nil {
			t.Fatalf("target %d errored: %v", i, err)
		}
		w := mw.Writer(i)
		// The standalone oracle uses the exact buffer size the budget
		// slice handed the multiplexed target, so flush framing matches.
		solo, err := NewWriter(Config{RecWidth: sh.width, Runs: sh.runs, BufBytes: w.cfg.BufBytes})
		if err != nil {
			t.Fatal(err)
		}
		sw := solo.Shard()
		for _, rec := range recs[i] {
			sw.Add(rec)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		for run := 0; run < sh.runs; run++ {
			got, err := os.ReadFile(runPath(w.Dir(), run))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(runPath(solo.Dir(), run))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("target %d run %d: multiplexed file differs from standalone (%d vs %d bytes)",
					i, run, len(got), len(want))
			}
		}
		solo.Cleanup()
		counts := make(map[string]int)
		size, within, err := w.CountRunsCtx(nil, -1, 1, func(_ int, m map[string]int) bool {
			for k, c := range m {
				counts[k] = c
			}
			return true
		})
		if err != nil || !within || size != len(refs[i]) {
			t.Fatalf("target %d: size=%d within=%v err=%v, want %d", i, size, within, err, len(refs[i]))
		}
		for k, c := range refs[i] {
			if counts[k] != c {
				t.Fatalf("target %d: key %q = %d, want %d", i, k, counts[k], c)
			}
		}
	}

	// Per-target lifecycle: cleaning one target removes only its runs.
	dir0, dir1 := mw.Writer(0).Dir(), mw.Writer(1).Dir()
	mw.CleanupTarget(0)
	if _, err := os.Stat(dir0); !os.IsNotExist(err) {
		t.Fatalf("target 0 dir survives CleanupTarget: %v", err)
	}
	if _, err := os.Stat(dir1); err != nil {
		t.Fatalf("sibling dir removed by CleanupTarget(0): %v", err)
	}
	mw.Cleanup()
	mw.Cleanup() // idempotent
	if _, err := os.Stat(dir1); !os.IsNotExist(err) {
		t.Fatalf("target 1 dir survives Cleanup: %v", err)
	}
}

func TestMultiWriterBudgetShare(t *testing.T) {
	mk := func(n, runs, width int) []Config {
		cfgs := make([]Config, n)
		for i := range cfgs {
			cfgs[i] = Config{RecWidth: width, Runs: runs}
		}
		return cfgs
	}
	// 4 targets × 4 runs share 16 KiB: 1 KiB per run, rounded to records.
	mw := NewMultiWriter(mk(4, 4, 6), 16<<10)
	defer mw.Cleanup()
	for i := 0; i < 4; i++ {
		if got := mw.Writer(i).cfg.BufBytes; got != 1024-1024%6 {
			t.Fatalf("target %d BufBytes = %d, want %d", i, got, 1024-1024%6)
		}
	}
	// A budget below the floor clamps to multiBufMin, not to zero.
	low := NewMultiWriter(mk(2, 8, 8), 100)
	defer low.Cleanup()
	if got := low.Writer(0).cfg.BufBytes; got != multiBufMin {
		t.Fatalf("floored BufBytes = %d, want %d", got, multiBufMin)
	}
	// A huge budget caps at 64 KiB per run, like the standalone default.
	high := NewMultiWriter(mk(1, 1, 8), 1<<30)
	defer high.Cleanup()
	if got := high.Writer(0).cfg.BufBytes; got != 64<<10 {
		t.Fatalf("capped BufBytes = %d, want %d", got, 64<<10)
	}
	// An explicit per-target BufBytes wins over the budget share.
	cfgs := mk(2, 2, 8)
	cfgs[1].BufBytes = 2048
	mixed := NewMultiWriter(cfgs, 8<<10)
	defer mixed.Cleanup()
	if got := mixed.Writer(1).cfg.BufBytes; got != 2048 {
		t.Fatalf("explicit BufBytes overridden: %d, want 2048", got)
	}
}
