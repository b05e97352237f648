// Package core implements the primary contribution of "Patterns Count-Based
// Labels for Datasets" (Moskovitch & Jagadish, ICDE 2021): patterns over
// categorical attributes (§II-A), pattern-count based labels consisting of a
// value-count section VC and a pattern-count section PC (§II-B, Definition
// 2.9), the count-estimation function Est(p, l) (Definition 2.11), and the
// absolute and q-error metrics used to score a label against a pattern set
// (Definition 2.13 and §II-B "Error metric").
//
// The package also provides the counting machinery the label model and the
// search algorithms (package search) are built on: mixed-radix group-by
// keys of one or more uint64 words, pattern-count indexes (PC), label-size
// computation with
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
// plus (v_a − 1)·radix(parent) whenever both keys are one word. So each
// group computes its parent's keys once per row block through
// Keyer.KeyBlock, never materializing them, and every child extends the
// block by one column and counts the result with the sequential loop's
// exact per-set cap-abort: into a pooled dense slab when its key space
// passes the dense predicate below, into a uint64 hash set otherwise. A
// set whose key is wider than one word counts row by row into a hash set
// of its record-form keys, and ∅ (one empty key per row) is sized without
// a scan. Groups are the unit of parallelism:
// each worker holds one group's accumulators at a time, and workers left
// over when groups are few shard each group's rows, merging with the same
// exact cap-abort.
//
// A group-by key is W ≥ 1 uint64 words (Keyer): the members pack, in
// order, into mixed-radix words, a member opening the next word when the
// current one would pass 2^63. W is 1 exactly when the whole key space
// fits 63 bits, and a wider key compares word by word. Group-by counting
// picks one of three kernels per attribute set, deterministically from the
// key space and the row count (dense.go); a sized set's accumulator
// follows the same rule. A PC keeps one of three representations: a dense
// slab, the sorted layout, or a merge-on-read spilled index.
//
//   - dense: when the key is one word whose mixed-radix product is at
//     most 2^22 slots and not vastly sparser than the scan (at most 16×
//     the row count), counts go into a flat []int32 indexed by key — shard
//     merge is vector addition, cap-abort is a nonzero-slot counter, and
//     per-worker memory is the key space itself. Tests override the
//     threshold through an unexported field of CountOptions (negative
//     disables the kernel).
//   - sorted: every other key space ends in SortedCounts: ascending W-word
//     keys with a parallel int32 count slice, 8W + 4 bytes an entry,
//     looked up by binary search and walked in key order. A one-word
//     build counts into hash maps fed by columnar key vectors
//     (Keyer.KeyBlock decodes a row block one member column at a time),
//     a wider one into hash maps keyed by the record form, and both
//     freeze them when the scan ends; marginals and in-memory merges
//     build the layout by radix sort-and-compress of their keys
//     (spill.Sorter), with no map at all.
//   - spill: sets beyond the dense tier whose modeled map footprint (56
//     bytes a one-word entry, 8W + 64 a wider one) exceeds
//     CountOptions.MemBudget run the external group-by, whose runs are
//     counted by sorting them, whatever the key width. The dense kernel
//     is exempt: its flat state is bounded by the dense slot limit.
//
// The spill tier (spillcount.go over internal/spill): keys
// hash-partition into K on-disk runs sized so one run's count state fits
// each counting worker's share of the budget. Every run, partition or
// sorted, is in the one run codec of spill.Runs: each worker buffers its
// keys per run and flushes a full buffer sorted, with the counts of equal
// keys summed, so a run holds a key at most once per flush of each shard
// however often it repeats. The key-disjoint runs are counted K-way in
// parallel, each read back, sorted and summed, so per-run counts are
// final; a worker sums in place whenever its buffer reaches its share, so
// a run of repeated keys is counted within it. Disk trouble during a
// spilled scan re-counts the set in memory with the caller's full options
// (budget cleared), metered in ScanStats.SpillFallbacks. LabelSizes
// prices a set by the keys its accumulator can reach — min(radix, rows,
// cap+1) entries under the same per-entry models — so a capped set stays
// in its group whenever cap+1 keys fit the budget. A set still over
// budget (an uncapped size, or a cap too large for the budget) is sized
// afterwards, in frontier order, by a build's partition phase and a count
// of its runs that keeps only the distinct total: no sorted run is
// written, the count stops once the total passes cap, and disk trouble
// re-sizes the set with the capped in-memory kernel.
//
// Budgeted builds are bounded end to end: a result map that models over
// the budget is not materialized — each counted run is written once as a
// sorted run of (key, count) entries (the first key word gap-coded, every
// number varint-coded, spill.Runs) and its partition file deleted, and
// the PC serves
// Size/LookupValsCtx/EachCtx merge-on-read from the sorted runs
// (spilledpc.go) through a pinned hot-run cache; ReleaseSpill (or, as a
// safety net, the GC) removes the runs. No budget means the tier is off.
// A run load decodes its entries straight into the sorted layout,
// charged its real 8W + 4 bytes an entry rather than the map model that
// decided to spill.
// Label.Merge over a spilled PC writes fresh runs, each one linear
// two-way merge of a base run with its share of the delta; a delta that
// grew a member domain — shifting a multiplier or moving a member to
// another word — re-partitions instead, each re-keyed entry once with its
// count (merge.go). Sizing-only
// scans keep partition runs alone: nothing reopens them.
//
// The merge-on-read read path is built for concurrent readers (the label
// serving daemon of internal/serve): there is no per-lookup mutex. Pinned
// hot runs live in an immutable snapshot swapped in by copy-on-write
// through an atomic pointer, so steady-state lookups are lock-free binary
// searches; a per-run load lock
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
// candidate. The search's evaluation phase scores candidates through a row
// index of its own and builds few labels: the winner's, and the label of
// any candidate whose scoring outgrows a row scan (internal/search). Each
// build does only per-candidate work — the PC group-by — because a
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
