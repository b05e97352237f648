// Package core implements the primary contribution of "Patterns Count-Based
// Labels for Datasets" (Moskovitch & Jagadish, ICDE 2021): patterns over
// categorical attributes (§II-A), pattern-count based labels consisting of a
// value-count section VC and a pattern-count section PC (§II-B, Definition
// 2.9), the count-estimation function Est(p, l) (Definition 2.11), and the
// absolute and q-error metrics used to score a label against a pattern set
// (Definition 2.13 and §II-B "Error metric").
//
// The package also provides the counting machinery the label model and the
// search algorithms (package search) are built on: mixed-radix and byte-level
// group-by keys, pattern-count indexes (PC), label-size computation with
// early abort, distinct-tuple enumeration (the evaluation pattern set P_A of
// §IV-A), and parallel label evaluation with the paper's sorted
// early-termination optimization (§IV-C).
//
// Each engine operation — BuildPC, LabelSize, LabelSizes, BuildLabel,
// PatternsOver — has one form: it takes CountOptions, whose
// Ctx field is its only cancellation input, and returns an error. Each
// query method on PC and Label — LookupValsCtx, EachCtx, MarginalizeCtx,
// CountCtx, EstimateCtx, MarginalPCCtx — takes ctx first (a nil ctx never
// cancels) and returns an error, because a merge-on-read PC section reads
// run files that can fail. Three error-free wrappers remain, each
// documented with its reason: BuildLabelOpts, PC.EachE and
// Label.Estimate/EstimateRow (Est(p, l) as the paper's examples and the
// Estimator interface use it).
//
// Dataset scans go through the sharded counting engine (parallel.go): the
// row range is split into contiguous per-worker chunks (CountOptions
// bounds the worker count; Workers: 1 is the sequential path), each worker
// fills private state with the shared read-only Keyer, and the shards are
// merged.
//
// LabelSizes is the one label-sizing kernel (LabelSize is its one-set
// form, and package search calls it once per lattice level). It groups a
// frontier's sets by gen parent — S minus its largest attribute a — across
// the whole frontier. A child's group-by refines its parent's, and since a
// is the last member of S's mixed-radix key, S's key is the parent's key
// plus (v_a − 1)·radix(parent) whenever it fits uint64. So each group
// computes its parent's keys once per row block through Keyer.KeyBlock,
// never materializing them, and every child extends the block by one
// column and counts the result with the sequential loop's exact per-set
// cap-abort: into a pooled dense slab when its key space passes the dense
// predicate below, into a uint64 hash set otherwise. A set whose key
// overflows uint64 keeps the per-row byte-key loop, and ∅ (one empty key
// per row) is sized without a scan. Groups are the unit of parallelism:
// each worker holds one group's accumulators at a time, and workers left
// over when groups are few shard each group's rows, merging with the same
// exact cap-abort.
//
// Group-by counting picks one of three kernels per attribute set,
// deterministically from the key space and the row count (dense.go); a
// sized set's accumulator follows the same rule. A PC keeps one of four
// representations: a dense slab, the sorted layout, a byte-string map, or
// a merge-on-read spilled index.
//
//   - dense: when the mixed-radix product is at most DefaultDenseLimit
//     (2^22 slots) and not vastly sparser than the scan (at most 16× the
//     row count), counts go into a flat []int32 indexed by key — shard
//     merge is vector addition, cap-abort is a nonzero-slot counter, and
//     per-worker memory is the key space itself. CountOptions.DenseLimit
//     overrides the threshold (negative disables the kernel).
//   - sorted: larger key spaces that still fit in uint64 count into hash
//     maps while the scan runs, and the result freezes into SortedCounts:
//     ascending keys with a parallel int32 count slice, 12 bytes an entry,
//     looked up by binary search and walked in key order. Marginals and
//     in-memory merges build the same layout by radix sort-and-compress
//     of their re-keyed entries, with no map at all. Both uint64 kernels
//     are fed by columnar key vectors (Keyer.KeyBlock decodes a row block
//     one member column at a time).
//   - bytes: key spaces overflowing uint64 fall back to byte-string keys
//     with the original per-row loop.
//   - uint64 spill: sets with uint64 keys beyond the dense tier whose
//     modeled map footprint (56 bytes an entry) exceeds
//     CountOptions.MemBudget run the external group-by with fixed-width
//     8-byte records — the common over-budget case once domains multiply;
//     runs count into map[uint64]int, no per-key string materialization.
//     The dense kernel is exempt: its flat state is bounded by the dense
//     slot limit.
//   - byte spill: byte-key sets over the budget — the unbounded-domain,
//     out-of-core case — spill 2-bytes-per-member records.
//   - shared spill partition: a frontier with several spilled sets
//     partitions all of them in ONE blocked dataset pass
//     (labelSizesSpilledShared over spill.MultiWriter): every set's keys
//     are computed per cache-resident row block and routed into that
//     set's own run files, byte-identical to the per-set pass, with the
//     flush buffers drawing on a shared budget slice. Counting is then
//     per set, exactly as below; CountOptions.DisableSharedSpill restores
//     the per-set passes as an ablation baseline.
//
// Both spill formats share the machinery (spillcount.go over
// internal/spill): keys hash-partition into K on-disk runs sized so one
// run's map fits each counting worker's share of the budget, the
// key-disjoint runs are counted K-way in parallel with a shared atomic
// distinct total (exact cap-abort across workers), and counts merge with
// the exact cap-abort of label sizing (per-run counts are final and the
// distinct total is a monotone sum). LabelSizes keeps spilled sets out of
// its groups and sizes them afterwards, in frontier order: one spill scan
// for a lone spilled set, the shared partition pass when there are several
// (ScanStats.SharedSpillPasses/SpillPassesSaved meter the saved scans).
// Disk trouble during any spill scan degrades per set, never per pass:
// the affected set re-counts in memory with the caller's full options
// (budget cleared), siblings keep their on-disk results.
// Budgeted builds are bounded end to end: a result map that models over
// the budget is not materialized — the PC retains its runs and serves
// Size/LookupValsCtx/EachCtx merge-on-read (spilledpc.go), streaming runs
// through a pinned hot-run cache; ReleaseSpill (or, as a safety net, the
// GC) removes the runs. No budget means the tier is off. The cache holds
// a uint64 run in the sorted layout and charges its real 12 bytes an
// entry, not the 56-byte map model that decided to spill.
//
// The merge-on-read read path is built for concurrent readers (the label
// serving daemon of internal/serve): there is no per-lookup mutex. Pinned
// hot runs live in an immutable snapshot swapped in by copy-on-write
// through an atomic pointer, so steady-state lookups are lock-free binary
// searches (map probes for byte-string runs); a per-run load lock
// serializes only the first fault of each run (concurrent readers of
// *different* cold runs load in parallel); a small
// admission lock guards the hot-cache cost accounting and the single
// floating (unpinned) slot, and is never held across I/O; and a liveness
// RWMutex arbitrates the release/lookup race — readers hold the read side
// across the released-check plus file scan, release takes the write side,
// and a lookup racing a completed ReleaseSpill fails with the documented
// "use of a released spilled PC" panic rather than undefined behaviour.
// No lock is held across user callbacks (EachCtx/MarginalizeCtx), so callbacks
// may re-enter the same PC. The locking model is spelled out on spilledPC
// (spilledpc.go) and hammered by the race-matrix tests in
// spilledpc_concurrent_test.go.
//
// Allocation is arena-managed: a VecPool recycles count slabs, key scratch
// and spill buffers across sizing calls and sharded builds
// (CountOptions.Pool). Steady-state enumeration allocates a near-constant
// working set (pinned by alloc_test.go) instead of one count slab per
// candidate. The evaluation phase builds one label per candidate, and
// each build does only per-candidate work — the PC group-by — because a
// label's VC section is its dataset's VC table (dataset.Dataset.VCTable),
// counted once per dataset and shared read-only by every label built over
// it. A label build's allocations therefore do not grow with the number
// of attributes (also pinned by alloc_test.go).
//
// Every parallel and dense path returns results bit-identical to the
// sequential path for all worker counts (differentially tested in
// parallel_test.go, whose one sizing harness checks LabelSizes against the
// sequential labelSize loop, and dense_test.go).
package core
