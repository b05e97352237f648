package pcbl

import (
	"context"
	"fmt"
	"io"

	"pcbl/internal/artifact"
	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/htmlreport"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
	"pcbl/internal/patexpr"
	"pcbl/internal/search"
	"pcbl/internal/spill"
)

// Re-exported types. The implementation lives in the internal packages; the
// aliases give external callers stable names on the public surface.
type (
	// Dataset is an immutable columnar table of categorical attributes.
	Dataset = dataset.Dataset
	// Attribute describes one column and its dictionary-encoded domain.
	Attribute = dataset.Attribute
	// CSVOptions controls CSV parsing.
	CSVOptions = dataset.CSVOptions
	// BucketizeOptions controls numeric bucketization.
	BucketizeOptions = dataset.BucketizeOptions
	// FilterOptions controls attribute pruning.
	FilterOptions = dataset.FilterOptions
	// Pattern is a set of attribute = value assignments (Definition 2.1).
	Pattern = core.Pattern
	// Label is a pattern count–based label L_S(D) (Definition 2.9).
	Label = core.Label
	// PatternSet is an evaluation workload of patterns with true counts.
	PatternSet = core.PatternSet
	// EvalResult aggregates estimation error over a pattern set.
	EvalResult = core.EvalResult
	// AttrSet is a set of attribute indices.
	AttrSet = lattice.AttrSet
	// SearchResult is the outcome of an optimal-label search.
	SearchResult = search.Result
	// SearchStats describes the work a search performed.
	SearchStats = search.Stats
)

// Bin strategies for Bucketize.
const (
	EqualWidth     = dataset.EqualWidth
	EqualFrequency = dataset.EqualFrequency
)

// FS is the filesystem seam the counting engine's spill tier and the
// artifact layer write through; nil always means the real OS filesystem.
// Tests inject fault-scripted implementations here.
type FS = iofault.FS

// EngineOptions is the one knob set for the counting engine behind every
// facade entry point — label builds (LabelOptions.Engine), label searches
// (GenerateOptions.Engine), and incremental merges. The zero value means
// all defaults: all CPUs, unlimited memory, system temp spill, the OS
// filesystem.
type EngineOptions struct {
	// Workers bounds group-by parallelism (0 = NumCPU).
	Workers int
	// MemBudget bounds the in-memory grouping state of a single group-by
	// in bytes; over-budget group-bys count out-of-core via hash-
	// partitioned on-disk runs, and over-budget result maps stay on disk
	// and serve merge-on-read. Results are identical to the in-memory
	// engine. Zero means unlimited.
	MemBudget int64
	// SpillDir overrides where spill run files are written (system temp
	// directory when empty).
	SpillDir string
	// FS is the filesystem seam spill runs are written through; nil means
	// the real OS filesystem.
	FS FS
}

// countOptions lowers the facade options onto the internal engine.
func (e EngineOptions) countOptions() core.CountOptions {
	return core.CountOptions{
		Workers:   e.Workers,
		MemBudget: e.MemBudget,
		SpillDir:  e.SpillDir,
		FS:        e.FS,
	}
}

// ReadCSV loads a dataset from header-bearing CSV text.
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) { return dataset.ReadCSV(r, opts) }

// ReadCSVFile loads a dataset from a CSV file.
func ReadCSVFile(path string, opts CSVOptions) (*Dataset, error) {
	return dataset.ReadCSVFile(path, opts)
}

// WriteCSV writes a dataset as CSV.
func WriteCSV(w io.Writer, d *Dataset) error { return dataset.WriteCSV(w, d) }

// Bucketize re-encodes numeric attributes into range buckets (paper §II:
// continuous domains are bucketized before labeling).
func Bucketize(d *Dataset, attrNames []string, opts BucketizeOptions) (*Dataset, error) {
	return dataset.Bucketize(d, attrNames, opts)
}

// BucketizeAllNumeric bucketizes every numeric attribute.
func BucketizeAllNumeric(d *Dataset, opts BucketizeOptions) (*Dataset, error) {
	return dataset.BucketizeAllNumeric(d, opts)
}

// FilterAttrs drops id-like and constant attributes (the paper's COMPAS
// preparation).
func FilterAttrs(d *Dataset, opts FilterOptions) (*Dataset, error) {
	return dataset.FilterAttrs(d, opts)
}

// NewPattern builds a pattern from attribute-name → value assignments.
func NewPattern(d *Dataset, assign map[string]string) (Pattern, error) {
	return core.NewPattern(d, assign)
}

// Count computes c_D(p), the number of tuples satisfying the pattern.
func Count(d *Dataset, p Pattern) int { return core.CountPattern(d, p) }

// AttrSetOf resolves attribute names to an AttrSet for the given dataset.
func AttrSetOf(d *Dataset, names ...string) (AttrSet, error) {
	return lattice.FromNames(d.AttrNames(), names...)
}

// BuildLabel computes L_S(D) for an explicit attribute set given by name.
// The group-by behind the PC section (and behind every lazily built
// marginal index) runs on the sharded parallel counting engine with all
// available CPUs.
func BuildLabel(d *Dataset, attrNames ...string) (*Label, error) {
	s, err := AttrSetOf(d, attrNames...)
	if err != nil {
		return nil, err
	}
	return core.BuildLabel(d, s, core.CountOptions{})
}

// BuildLabelCtx is BuildLabel with cooperative cancellation: the counting
// engine polls ctx at row-block (and spill-run) granularity, and a fired
// context abandons the build — spill temp files removed, no partial label —
// returning the typed context error (context.Canceled or
// context.DeadlineExceeded). A nil ctx is exactly BuildLabel.
func BuildLabelCtx(ctx context.Context, d *Dataset, attrNames ...string) (*Label, error) {
	s, err := AttrSetOf(d, attrNames...)
	if err != nil {
		return nil, err
	}
	return core.BuildLabel(d, s, core.CountOptions{Ctx: ctx})
}

// ParsePattern builds a pattern from a textual expression such as
// "gender = Female AND race = Hispanic" (see internal/patexpr for the
// grammar).
func ParsePattern(d *Dataset, expr string) (Pattern, error) {
	assign, err := patexpr.Parse(expr)
	if err != nil {
		return Pattern{}, err
	}
	return core.NewPattern(d, assign)
}

// LabelSize computes |P_S| — the size a label built on the named attribute
// set would have — with the sharded parallel counting engine (all available
// CPUs). When bound >= 0 and the size exceeds it, counting aborts early and
// LabelSize reports (bound+1, false); pass bound -1 for the exact size.
func LabelSize(d *Dataset, bound int, attrNames ...string) (size int, within bool, err error) {
	s, err := AttrSetOf(d, attrNames...)
	if err != nil {
		return 0, false, err
	}
	return core.LabelSize(d, s, bound, core.CountOptions{})
}

// LabelSizes computes |P_S| for a whole frontier of attribute sets: sets
// that share a gen parent (the set minus its largest attribute) are sized
// off one pass over that parent's keys, each with early abort at the
// bound, and the groups and their rows are shared out across workers (0 =
// NumCPU). For each set i the pair (sizes[i], within[i]) matches what
// LabelSize would report. This is the call the label search's enumeration
// phase makes once per level. err reports an engine failure, as
// LabelSize's does.
func LabelSizes(d *Dataset, sets []AttrSet, bound, workers int) (sizes []int, within []bool, err error) {
	return core.LabelSizes(d, sets, bound, core.CountOptions{Workers: workers})
}

// PatternsOver builds the workload P_S: every positive-count pattern over
// the named attributes — the "sensitive attributes only" workload of
// Definition 2.15. The underlying group-by runs on the sharded parallel
// counting engine with all available CPUs.
func PatternsOver(d *Dataset, attrNames ...string) (*PatternSet, error) {
	s, err := AttrSetOf(d, attrNames...)
	if err != nil {
		return nil, err
	}
	return core.PatternsOver(d, s, core.CountOptions{})
}

// WriteHTMLReport renders a self-contained HTML page for a label (the
// paper's "simple user interface" presentation). A nil eval omits the
// estimation-quality block. Reading a spilled PC section can fail; the
// read error is returned and nothing is written.
func WriteHTMLReport(w io.Writer, l *Label, eval *EvalResult) error {
	return htmlreport.Write(w, l, htmlreport.Options{Eval: eval})
}

// Algorithm selects the label search strategy.
type Algorithm string

const (
	// TopDown is Algorithm 1, the paper's optimized heuristic (default).
	TopDown Algorithm = "topdown"
	// Naive is the level-wise baseline algorithm of §III.
	Naive Algorithm = "naive"
)

// GenerateOptions configures GenerateLabel. It holds no deadline: the
// context passed to GenerateCtx is the search's one deadline input.
type GenerateOptions struct {
	// Bound is B_s, the maximum label size |P_S|. Required.
	Bound int
	// Algorithm selects the search strategy; TopDown when empty.
	Algorithm Algorithm
	// Patterns is the workload to optimize against; P_A (every distinct
	// full tuple, as in the paper's experiments) when nil.
	Patterns *PatternSet
	// FastEval enables the paper's sorted early-termination evaluation.
	FastEval bool

	// Engine configures the counting engine (workers, memory budget,
	// spill placement, filesystem seam). Engine.Workers
	// bounds parallelism in both search phases — enumeration shards its
	// sizing scans, evaluation scores candidates concurrently and builds
	// the winner's label on every worker — and parallel runs return
	// exactly the sequential result. Engine.MemBudget also bounds the
	// evaluation's row index: a search whose budget it does not fit
	// scores each candidate from a label of its own.
	Engine EngineOptions
}

// GenerateLabel finds an (approximately) optimal label within the size
// bound: the attribute subset whose label minimizes the maximum count-
// estimation error over the workload (Definition 2.15), searched with the
// selected algorithm.
func GenerateLabel(d *Dataset, opts GenerateOptions) (*SearchResult, error) {
	return GenerateCtx(nil, d, opts)
}

// GenerateCtx is GenerateLabel with cooperative cancellation: both search
// phases poll ctx (enumeration at row-block granularity inside each
// level's sizing, evaluation between candidates and inside every label
// build), and a fired context abandons the search, releases every
// spill-backed label it built, and returns the typed context error. ctx is
// the search's one deadline input: a caller who wants a deadline passes
// context.WithTimeout, and an expired one returns
// context.DeadlineExceeded. A nil ctx is exactly GenerateLabel.
func GenerateCtx(ctx context.Context, d *Dataset, opts GenerateOptions) (*SearchResult, error) {
	ps := opts.Patterns
	if ps == nil {
		ps = core.DistinctTuples(d)
	}
	so := search.Options{
		Bound:        opts.Bound,
		FastEval:     opts.FastEval,
		CountOptions: opts.Engine.countOptions(),
	}
	so.Ctx = ctx
	switch opts.Algorithm {
	case "", TopDown:
		return search.TopDown(d, ps, so)
	case Naive:
		return search.Naive(d, ps, so)
	default:
		return nil, fmt.Errorf("pcbl: unknown algorithm %q", opts.Algorithm)
	}
}

// DistinctTuples returns P_A: every distinct NULL-free tuple with its
// multiplicity — the paper's evaluation pattern set.
func DistinctTuples(d *Dataset) *PatternSet { return core.DistinctTuples(d) }

// Evaluate scores a label against a workload (all error metrics of §IV-B).
// A nil workload means P_A.
func Evaluate(l *Label, ps *PatternSet) EvalResult {
	if ps == nil {
		ps = core.DistinctTuples(l.Dataset())
	}
	return core.Evaluate(l, ps, core.EvalOptions{})
}

// RenderLabel renders the human-readable nutrition label of Fig 1. Pass a
// non-nil eval to append the error summary block. Reading a spilled PC
// section can fail; the read error is returned then.
func RenderLabel(l *Label, eval *EvalResult) (string, error) {
	return core.Render(l, core.RenderOptions{Eval: eval})
}

// LabelOptions configures the counting engine behind BuildLabelWith. The
// zero value matches BuildLabel.
type LabelOptions struct {
	// Engine configures the counting engine.
	Engine EngineOptions
}

// BuildLabelWith is BuildLabel with explicit engine options — the
// constructor behind `pcbl save` when the label attributes are given rather
// than searched for.
func BuildLabelWith(d *Dataset, opts LabelOptions, attrNames ...string) (*Label, error) {
	s, err := AttrSetOf(d, attrNames...)
	if err != nil {
		return nil, err
	}
	return core.BuildLabel(d, s, opts.Engine.countOptions())
}

// LabelManifest describes a saved label artifact (see docs/artifact-format.md).
type LabelManifest = artifact.Manifest

// SaveLabelArtifact writes the label — PC section, VC section, and every
// materialized marginal index, with spilled payloads relocated rather than
// re-counted — into dir as a versioned on-disk artifact. dir must not exist
// or be empty. The source label stays fully usable afterwards.
func SaveLabelArtifact(l *Label, dir string) error { return artifact.SaveFS(l, dir, nil) }

// OpenLabelArtifact reopens a saved label artifact read-only. The returned
// label answers Count/Estimate/Marginal queries bit-identically to the
// label that was saved; call ReleaseSpill when done if the artifact carries
// merge-on-read payloads (this does not delete the artifact's files).
func OpenLabelArtifact(dir string) (*Label, *LabelManifest, error) { return artifact.OpenFS(dir, nil) }

// DeltaMeta binds a delta artifact to the base artifact state (epoch and
// row watermark) its rows were counted against.
type DeltaMeta = artifact.DeltaMeta

// Typed artifact error classes, re-exported for errors.Is dispatch.
var (
	// ErrArtifactIncomplete marks a directory without a readable manifest
	// (not an artifact, or a save that crashed before its commit point).
	ErrArtifactIncomplete = artifact.ErrIncomplete
	// ErrArtifactCorrupt marks artifact data that failed checksum or
	// length verification.
	ErrArtifactCorrupt = artifact.ErrCorrupt
	// ErrArtifactManifest marks a manifest that parsed but is invalid.
	ErrArtifactManifest = artifact.ErrManifest
	// ErrEpochMismatch marks an incremental merge whose delta was built
	// against a different artifact epoch or row watermark than the one on
	// disk; rebuild the delta against the current manifest.
	ErrEpochMismatch = artifact.ErrEpochMismatch
	// ErrNoSpace marks disk-space exhaustion (ENOSPC) during spill writes
	// or artifact saves/merges. Builds and sizing scans that hit it degrade
	// to the in-memory engine with identical results (metered in stats);
	// saves and merges abort cleanly — crash-safety holds, the previous
	// artifact generation stays committed. Dispatch with
	// errors.Is(err, ErrNoSpace).
	ErrNoSpace = spill.ErrNoSpace
)

// ReadCSVAppend reads the appended tail of a grown CSV into a delta
// dataset for incremental label maintenance: the header must name base's
// attributes in order, opts.SkipRows rows (the base's row watermark) are
// validated and passed over without being stored or interned, and the kept
// rows build on base's dictionaries, read in place and never changed —
// known values keep their identifiers, new values extend the domains. base may be schema-only (an artifact's
// reopened dataset). The result is what Label.Merge and MergeLabelArtifact
// expect as a delta's dataset.
func ReadCSVAppend(r io.Reader, base *Dataset, opts CSVOptions) (*Dataset, error) {
	return dataset.ReadCSVAppend(r, base, opts)
}

// BuildDeltaLabel counts a delta label over only the appended rows —
// delta must come from ReadCSVAppend (or dataset slicing) so its
// dictionaries extend the base's — on the same attribute set as the base
// label or artifact it will merge into. The counting pass reads only
// delta's rows, never the history.
func BuildDeltaLabel(delta *Dataset, engine EngineOptions, attrNames ...string) (*Label, error) {
	s, err := AttrSetOf(delta, attrNames...)
	if err != nil {
		return nil, err
	}
	return core.BuildLabel(delta, s, engine.countOptions())
}

// SaveDeltaArtifact writes a delta label as its own artifact, tagged with
// the base manifest's epoch and row watermark so MergeDeltaArtifact can
// later verify it still applies. base is the manifest of the artifact the
// delta extends, from OpenLabelArtifact at delta-build time.
func SaveDeltaArtifact(l *Label, dir string, base *LabelManifest) error {
	return artifact.SaveDeltaFS(l, dir, base, nil)
}

// MergeLabelArtifact folds a delta label — counted over only the rows
// appended after the base artifact's watermark — into the artifact at
// baseDir, committing an updated artifact (epoch incremented) whose label
// is bit-identical to a full rebuild. base is the manifest the delta was
// built against; if the on-disk artifact has moved past it the merge is
// rejected with ErrEpochMismatch and the artifact is untouched (nil skips
// the check). The commit is crash-safe: at every instant the directory
// holds one complete artifact — the old one until the manifest rename, the
// merged one after.
func MergeLabelArtifact(baseDir string, delta *Label, base *LabelManifest) (*LabelManifest, error) {
	return artifact.MergeIntoFS(baseDir, delta, base, nil)
}

// MergeDeltaArtifact folds a saved delta artifact (SaveDeltaArtifact) into
// the base artifact it is bound to, with the same epoch verification and
// crash-safety as MergeLabelArtifact.
func MergeDeltaArtifact(baseDir, deltaDir string) (*LabelManifest, error) {
	return artifact.MergeDeltaIntoFS(baseDir, deltaDir, nil)
}
