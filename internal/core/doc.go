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
// Each engine operation — BuildPC, LabelSize, LabelSizes, RefineSizes,
// BuildLabel, PatternsOver — has one form: it takes CountOptions, whose
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
// merged. LabelSizes evaluates the label sizes of a whole frontier of
// candidate attribute sets in one blocked pass over the rows with per-set
// cap abort; it is the scan behind package search's enumeration phase.
//
// Group-by counting picks one of three kernels per attribute set,
// deterministically from the key space and the row count (dense.go):
//
//   - dense: when the mixed-radix product is at most DefaultDenseLimit
//     (2^22 slots) and not vastly sparser than the scan (at most 16× the
//     row count), counts go into a flat []int32 indexed by key — shard
//     merge is vector addition, cap-abort is a nonzero-slot counter, and
//     per-worker memory is the key space itself. CountOptions.DenseLimit
//     overrides the threshold (negative disables the kernel).
//   - map: larger key spaces that still fit in uint64 count into hash
//     maps. Both uint64 kernels are fed by columnar key vectors
//     (Keyer.KeyBlock decodes a row block one member column at a time).
//   - bytes: key spaces overflowing uint64 fall back to byte-string keys
//     with the original per-row loop.
//   - uint64 spill: map-kernel sets (uint64 keys beyond the dense tier)
//     whose estimated map footprint exceeds CountOptions.MemBudget run the
//     external group-by with fixed-width 8-byte records — the common
//     over-budget case once domains multiply; count maps stay
//     map[uint64]int, no per-key string materialization. The dense kernel
//     is exempt: its flat state is bounded by the dense slot limit.
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
// distinct total is a monotone sum). Fused frontier scans exclude spilled
// sets and size them afterwards, in frontier order: one spill scan for a
// lone spilled set, the shared partition pass when there are several
// (ScanStats.SharedSpillPasses/SpillPassesSaved meter the saved scans).
// Disk trouble during any spill scan degrades per set, never per pass:
// the affected set re-counts in memory with the caller's full options
// (budget cleared), siblings keep their on-disk results.
// Budgeted builds are bounded end to end: a result map that models over
// the budget is not materialized — the PC retains its runs and serves
// Size/LookupValsCtx/EachCtx merge-on-read (spilledpc.go), streaming runs
// through a pinned hot-run cache; ReleaseSpill (or, as a safety net, the
// GC) removes the runs. No budget means the tier is off.
//
// The merge-on-read read path is built for concurrent readers (the label
// serving daemon of internal/serve): there is no per-lookup mutex. Pinned
// hot runs live in an immutable map snapshot swapped in by copy-on-write
// through an atomic pointer, so steady-state lookups are lock-free map
// probes; a per-run load lock serializes only the first fault of each run
// (concurrent readers of *different* cold runs load in parallel); a small
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
// Orthogonally, refinebatch.go reuses work across lattice levels. A
// child set's group-by refines its parent's, so the label size of S ∪ {a}
// follows from a two-column pass — parent groups joined with a's column —
// counted in the compact (group, value) space, which is bounded by the
// parent's key space × dom(a) rather than by the full mixed-radix product.
// When the parent is dense-keyable its group ids can be DEFINED as its
// dense mixed-radix keys, so the row→group vector is virtual —
// recomputable blockwise through Keyer.KeyBlock — and one RefineSizes pass
// sizes an entire batch of sibling children S ∪ {a₁}, …, S ∪ {aₖ} at once,
// scattering into k pooled compact-space accumulators with per-child exact
// cap-abort and worker sharding. Package search's frontier scheduler sends
// each candidate down one of two paths: batched refinement when its gen
// parent is dense-keyable and the candidate stays dense-keyable, the fused
// raw scan (LabelSizes) otherwise.
//
// Refinement never spills: its compact spaces are bounded by a
// dense-keyable parent's key space times one attribute domain, so it is
// in-memory by construction — the budget governs only raw scans.
//
// Allocation is arena-managed: a VecPool recycles count slabs, key scratch
// and spill buffers across refinements, fused scans and sharded builds
// (CountOptions.Pool). Steady-state enumeration allocates a near-constant
// working set (pinned by alloc_test.go) instead of one compact-space slab
// per candidate. The evaluation phase builds one label per candidate, and
// each build does only per-candidate work — the PC group-by — because a
// label's VC section is its dataset's VC table (dataset.Dataset.VCTable),
// counted once per dataset and shared read-only by every label built over
// it. A label build's allocations therefore do not grow with the number
// of attributes (also pinned by alloc_test.go).
//
// Every parallel, dense and refinement path returns results
// bit-identical to the sequential path for all worker counts
// (differentially tested in parallel_test.go, dense_test.go and
// refinebatch_test.go).
package core
