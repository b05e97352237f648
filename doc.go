// Package pcbl is a Go implementation of "Patterns Count-Based Labels for
// Datasets" (Moskovitch & Jagadish, ICDE 2021): bounded-size dataset labels
// that record value counts for every attribute value plus pattern counts
// over a chosen attribute subset, from which the count of any attribute-
// value combination in the data can be estimated — the count profile a
// "nutrition label for datasets" needs in order to expose representation
// gaps, skew and correlated attributes before the data is used to train a
// model.
//
// The package is a thin facade over the implementation packages:
//
//   - internal/core     — patterns, labels, estimation, error metrics,
//     and the sharded parallel counting engine (grouped frontier sizing)
//   - internal/search   — optimal-label search (naive and Algorithm 1)
//   - internal/dataset  — categorical columnar tables, CSV, bucketization
//   - internal/sampling, internal/pgstats — the paper's baselines
//   - internal/workpool — chunked work-pool primitives shared by the above
//   - internal/datagen  — emulators of the paper's evaluation datasets
//   - internal/experiments — regeneration of every evaluation figure
//
// # Quick start
//
//	d, _ := pcbl.ReadCSVFile("people.csv", pcbl.CSVOptions{})
//	res, _ := pcbl.GenerateLabel(d, pcbl.GenerateOptions{Bound: 50})
//	text, _ := pcbl.RenderLabel(res.Label, nil)
//	fmt.Println(text)
//
//	p, _ := pcbl.NewPattern(d, map[string]string{"race": "Hispanic", "gender": "Female"})
//	fmt.Printf("≈ %.0f rows\n", res.Label.Estimate(p))
//
// # Publishing a label
//
// A label is published as a versioned artifact directory
// (docs/artifact-format.md) and shipped as metadata with the dataset:
// SaveLabelArtifact writes it, and a consumer without the data reopens it
// with OpenLabelArtifact and estimates from it alone:
//
//	_ = pcbl.SaveLabelArtifact(res.Label, "label-artifact")
//	l, _, _ := pcbl.OpenLabelArtifact("label-artifact")
//	p, _ := pcbl.ParsePattern(l.Dataset(), "race = Hispanic AND gender = Female")
//	est, _ := l.EstimateCtx(nil, p)
//
// The reopened label is the same *Label type with the same Est(p, l), so
// it answers exactly as the label that was saved. The `pcbl save`,
// `estimate`, `audit` and `serve` subcommands work from the same artifact.
// Only the current artifact format is read; an artifact of an older format
// fails OpenLabelArtifact with ErrArtifactManifest or ErrArtifactCorrupt.
//
// # Incremental maintenance
//
// A saved label artifact is updated in place when the dataset grows,
// counting only the appended rows: ReadCSVAppend scans the rows up to the
// artifact's row watermark only to validate them, without storing or
// interning them, and reads the suffix past it onto the artifact's
// dictionaries, which it reads in place rather than copying;
// BuildDeltaLabel counts the suffix, and
// MergeLabelArtifact folds it into the artifact under an incremented
// epoch — bit-identical to a rebuild over the full file. SaveDeltaArtifact
// and MergeDeltaArtifact split the two halves across machines; the delta
// artifact records the base epoch and row count it was built against, and
// a merge against any other generation is refused with ErrEpochMismatch.
// The `pcbl update` subcommand drives the whole flow, and a serving
// daemon swaps to the merged artifact on SIGHUP or POST /v1/reload
// without dropping in-flight queries.
//
// Engine configuration (workers, memory budget, spill placement, the
// filesystem seam) lives in EngineOptions, embedded as the Engine field of
// GenerateOptions and LabelOptions and passed directly to
// BuildDeltaLabel.
//
// # Errors, cancellation and panics
//
// The package reports expected failures — malformed input, unknown
// attributes or values, artifact damage, disk trouble — as errors, and
// artifact errors wrap the typed sentinels ErrArtifactIncomplete,
// ErrArtifactCorrupt, ErrArtifactManifest and ErrEpochMismatch for
// errors.Is dispatch. Every label query has one form that returns its
// error: Label.CountCtx, EstimateCtx and MarginalPCCtx take a context
// first (nil never cancels), and a spilled PC section whose run read fails
// answers with the error, never a wrong count. RenderLabel and
// WriteHTMLReport read the whole PC section and return the same error. The core panics only on API misuse — a Pattern built against a
// different dataset's dictionaries, an attribute index out of range, a
// label used after ReleaseSpill — never on data or disk contents, with
// one deliberate exception: Label.Estimate, the error-free Est(p, l) of
// the paper's examples, panics if a spilled PC section hits an
// unrecoverable read fault, because returning would mean returning a
// wrong estimate. Long-lived consumers of artifact-backed labels call
// EstimateCtx instead; the serving layer does, degrading the request
// rather than the process.
//
// Cancellation is a distinct error family. Work bounded by a caller's
// context — GenerateCtx, BuildLabelCtx, the Ctx query methods — stops
// cooperatively when the context fires and returns an error wrapping
// context.Canceled or context.DeadlineExceeded (check with errors.Is),
// never a panic and never a partial result: an interrupted build yields a
// nil label with its spill scratch removed, an interrupted query yields no
// count. Cancellation is the caller's doing, so unlike a read fault it
// does not degrade or poison the label — the same label answers the next
// query with a live context. Disk exhaustion is likewise typed: writes
// that run out of space surface ErrNoSpace through the error chain, and
// spill-backed builds degrade to their in-memory kernel (metered, not an
// error) when scratch space runs out. See docs/operations.md for how the
// serve daemon maps these families onto HTTP statuses and admission
// control.
package pcbl
