package core

// Concurrency tests for the merge-on-read spilled PC: the read surface
// (LookupValsCtx / EachCtx / MarginalizeCtx) must serve many goroutines at once,
// bit-identical to the in-memory oracle, for both record formats; EachCtx
// must tolerate callbacks that re-enter the same PC (the pre-rework code
// held a global mutex across the callback and deadlocked); and a lookup
// racing ReleaseSpill must surface only the documented panic, never a raw
// file-read error. CI runs this package under -race at GOMAXPROCS 1 and 4.

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// spillConcurrencyConfigs covers both key widths.
var spillConcurrencyConfigs = []diffConfig{
	{rows: 3000, attrs: 4, domain: 65000, nullRate: 0.1}, // two-word records
	{rows: 4000, attrs: 4, domain: 300, nullRate: 0.05},  // one-word records
}

// evictRuns is the minRuns the read-path tests pass to spillBudgetFor so
// an index cannot pin every run and the floating slot keeps churning. The
// run cache charges a sorted run 8W + 4 bytes an entry, against the map
// model spillBudgetFor divides (56 bytes a one-word entry, 80 a two-word
// one): at 4 runs the budget is 14 or 20 bytes a row and every run pins;
// at 8 it is 7 or 10, so some runs float.
const evictRuns = 8

// buildSpilledWithOracle builds the same group-by twice: unbudgeted (the
// in-memory oracle) and under a budget that forces a merge-on-read result.
func buildSpilledWithOracle(t *testing.T, cfg diffConfig, seed uint64, minRuns int) (d *dataset.Dataset, oracle, spilled *PC) {
	t.Helper()
	d = diffDataset(t, cfg, seed)
	s := spillSet(t, d)
	oracle = must(BuildPC(d, s, CountOptions{Workers: 1}))
	opts := testCountOptions(2)
	opts.MemBudget = spillBudgetFor(d, s, minRuns)
	opts.SpillDir = t.TempDir()
	spilled = must(BuildPC(d, s, opts))
	if !spilled.Spilled() {
		t.Fatalf("budgeted build did not stay merge-on-read (size %d, budget %d)", oracle.Size(), opts.MemBudget)
	}
	return d, oracle, spilled
}

// probeRows samples dense identifier slices to look up: real rows (present
// patterns) plus perturbed ones (mostly absent).
func probeRows(d *dataset.Dataset, n int, seed uint64) [][]uint16 {
	rng := rand.New(rand.NewPCG(seed, 0xBEEF))
	cols := datasetCols(d)
	probes := make([][]uint16, 0, 2*n)
	for i := 0; i < n; i++ {
		r := rng.IntN(d.NumRows())
		vals := make([]uint16, d.NumAttrs())
		for a := range vals {
			vals[a] = cols[a][r]
		}
		probes = append(probes, vals)
		miss := make([]uint16, len(vals))
		copy(miss, vals)
		miss[rng.IntN(len(miss))] ^= 0x3 // usually leaves the domain or moves to an absent pattern
		probes = append(probes, miss)
	}
	return probes
}

func TestSpilledPCConcurrentReads(t *testing.T) {
	for ci, cfg := range spillConcurrencyConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d, oracle, spilled := buildSpilledWithOracle(t, cfg, uint64(ci)+0x61, evictRuns)
			defer spilled.ReleaseSpill()

			probes := probeRows(d, 256, uint64(ci)+0x62)
			want := make([]int, len(probes))
			for i, p := range probes {
				want[i] = must(oracle.LookupValsCtx(nil, p))
			}
			wantDump := pcDump(oracle)
			sub := lattice.FullSet(2)
			wantMarg := pcDump(must(oracle.MarginalizeCtx(nil, d, sub)))

			const readers = 16
			var wg sync.WaitGroup
			errs := make(chan error, readers)
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					switch g % 3 {
					case 0: // point lookups
						for rep := 0; rep < 3; rep++ {
							for i, p := range probes {
								if got := must(spilled.LookupValsCtx(nil, p)); got != want[i] {
									errs <- fmt.Errorf("reader %d: probe %d: got %d, want %d", g, i, got, want[i])
									return
								}
							}
						}
					case 1: // full scans
						got := pcDump(spilled)
						if len(got) != len(wantDump) {
							errs <- fmt.Errorf("reader %d: Each saw %d patterns, want %d", g, len(got), len(wantDump))
							return
						}
						for k, c := range wantDump {
							if got[k] != c {
								errs <- fmt.Errorf("reader %d: pattern %q: got %d, want %d", g, k, got[k], c)
								return
							}
						}
					case 2: // marginals (Each + aggregation, re-entrant by design)
						got := pcDump(must(spilled.MarginalizeCtx(nil, d, sub)))
						for k, c := range wantMarg {
							if got[k] != c {
								errs <- fmt.Errorf("reader %d: marginal %q: got %d, want %d", g, k, got[k], c)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			stats, ok := spilled.SpillReadStats()
			if !ok {
				t.Fatal("SpillReadStats not available on a spilled PC")
			}
			if stats.RunLoads == 0 {
				t.Error("no run loads recorded despite spilled reads")
			}
			if stats.HotHits+stats.FloatingHits+stats.RunLoads == 0 {
				t.Error("read-path counters all zero after concurrent reads")
			}
		})
	}
}

// TestSpilledPCPinnedLockFreeIdentity pins the read-mostly fast path: with
// the budget just under the modeled footprint nearly every run pins, and
// repeated concurrent lookups must be hot-cache hits, still bit-identical
// to the oracle.
func TestSpilledPCPinnedLockFreeIdentity(t *testing.T) {
	cfg := spillConcurrencyConfigs[1]
	d := diffDataset(t, cfg, 0x63)
	s := spillSet(t, d)
	oracle := must(BuildPC(d, s, CountOptions{Workers: 1}))
	// Budget one byte under the exact result cost: the build must stay
	// merge-on-read, but on the read side all runs except a sliver pin.
	entry := NewKeyer(d, s).entryBytes()
	opts := testCountOptions(2)
	opts.MemBudget = int64(oracle.Size())*entry - 1
	opts.SpillDir = t.TempDir()
	spilled := must(BuildPC(d, s, opts))
	if !spilled.Spilled() {
		t.Fatalf("budgeted build did not stay merge-on-read (size %d, budget %d)", oracle.Size(), opts.MemBudget)
	}
	defer spilled.ReleaseSpill()

	probes := probeRows(d, 256, 0x64)
	want := make([]int, len(probes))
	for i, p := range probes {
		want[i] = must(oracle.LookupValsCtx(nil, p))
	}
	// Warm every run once so subsequent lookups hit the pinned cache.
	for i, p := range probes {
		if got := must(spilled.LookupValsCtx(nil, p)); got != want[i] {
			t.Fatalf("warm probe %d: got %d, want %d", i, got, want[i])
		}
	}
	warm, _ := spilled.SpillReadStats()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range probes {
				if got := must(spilled.LookupValsCtx(nil, p)); got != want[i] {
					t.Errorf("probe %d: got %d, want %d", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()

	stats, _ := spilled.SpillReadStats()
	if stats.HotHits <= warm.HotHits {
		t.Errorf("no pinned-run hits during the concurrent phase (warm %d, after %d)", warm.HotHits, stats.HotHits)
	}
}

// TestSpilledPCEachReentrantProbe is the deadlock regression for the
// documented contract that Each's callback may probe the same PC: the
// pre-rework implementation held one global mutex across the callback, so
// a LookupValsCtx (or MarginalizeCtx) from inside fn self-deadlocked.
func TestSpilledPCEachReentrantProbe(t *testing.T) {
	for ci, cfg := range spillConcurrencyConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d, _, spilled := buildSpilledWithOracle(t, cfg, uint64(ci)+0x65, evictRuns)
			defer spilled.ReleaseSpill()

			done := make(chan struct{})
			go func() {
				defer close(done)
				n := d.NumAttrs()
				first := true
				noErr(spilled.EachCtx(nil, n, func(vals []uint16, count int) bool {
					// Re-entrant point probe: the emitted pattern must look
					// itself up with the emitted count.
					if got := must(spilled.LookupValsCtx(nil, vals)); got != count {
						t.Errorf("re-entrant lookup: got %d, want %d", got, count)
						return false
					}
					if first {
						first = false
						// Full re-entrant scan: MarginalizeCtx drives EachCtx over
						// this same PC from inside the outer EachCtx.
						if m := must(spilled.MarginalizeCtx(nil, d, lattice.FullSet(2))); m.Size() == 0 {
							t.Error("re-entrant MarginalizeCtx returned an empty PC")
						}
					}
					return true
				}))
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("Each with a re-entrant callback deadlocked")
			}
		})
	}
}

// TestSpilledPCReleaseLookupRace pins the liveness contract: a lookup
// racing ReleaseSpill either completes normally or panics with the
// documented message — never a raw spill read error.
func TestSpilledPCReleaseLookupRace(t *testing.T) {
	for ci, cfg := range spillConcurrencyConfigs {
		t.Run(cfg.name(), func(t *testing.T) {
			d, _, spilled := buildSpilledWithOracle(t, cfg, uint64(ci)+0x67, evictRuns)
			probes := probeRows(d, 64, uint64(ci)+0x68)

			const readers = 8
			var wg sync.WaitGroup
			panics := make([]string, readers)
			started := make(chan struct{}, readers)
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							panics[g] = fmt.Sprint(r)
						}
					}()
					started <- struct{}{}
					for {
						for _, p := range probes {
							must(spilled.LookupValsCtx(nil, p))
						}
					}
				}(g)
			}
			for g := 0; g < readers; g++ {
				<-started
			}
			spilled.ReleaseSpill()
			wg.Wait()

			for g, msg := range panics {
				if msg == "" {
					t.Fatalf("reader %d never observed the release", g)
				}
				if !strings.Contains(msg, "use of a released spilled PC") {
					t.Fatalf("reader %d: panic %q, want the documented released-PC panic", g, msg)
				}
			}
		})
	}
}
