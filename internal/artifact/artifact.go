// Package artifact persists pattern count–based labels as versioned
// on-disk artifacts: a label built once becomes a directory that any later
// process — in particular the `pcbl serve` daemon — reopens and queries
// without access to the original dataset.
//
// An artifact directory holds one manifest.json plus one payload per
// pattern-count index (the label's PC section first, then every
// materialized marginal index). Every payload stores its (key, count)
// entries in the one run codec of internal/spill: sorted keys of W uint64
// words, the first word gap-coded and every number varint-coded, in
// CRC32C frames whose headers carry each frame's entry and row totals. A
// payload is one run in a file or K runs in a directory:
//
//   - manifest.json — a self-checksummed envelope around the manifest:
//     format version, dataset schema (attribute names and active domains),
//     the VC section (per-value counts), the label's attribute set, and a
//     descriptor per PC payload.
//   - pc-NNN.bin — a sorted payload: an in-memory index, dense or sorted,
//     saved as one run of its entries in key order. Its descriptor carries
//     the file's length and CRC32C. OpenFS decodes it whole and gives the
//     index the representation a build over the label's rows would pick,
//     so the artifact records no engine representation.
//   - pc-NNN-runs/ — a spilled payload: a merge-on-read index's K runs,
//     adopted into the artifact by rename instead of being re-counted,
//     exactly as internal/spill wrote them. The partition-routing hash is
//     fixed, so a reopened artifact routes point lookups to the same
//     single run the build spilled them into.
//
// Saves are crash-safe: payload bytes are fsynced, then the directory,
// then the manifest lands by atomic rename (tmp + fsync + rename + dir
// fsync). The manifest rename is the commit point — a crash at any earlier
// instant leaves a directory without a manifest, which OpenFS rejects
// with ErrIncomplete, and a crash after it leaves a complete, durable
// artifact. OpenFS validates the manifest eagerly (structure and
// self-checksum, with typed errors) and payload data as it is read: a
// sorted payload verifies its file checksum and then every frame and
// entry at open; spilled runs are checked against the manifest from their
// frame headers at open, and verify each frame's checksum and entries when
// a run is first read. Only the current format is read: an artifact of an
// older format fails OpenFS with ErrManifest.
//
// Every entry point takes a filesystem seam (iofault.FS); nil means the
// real OS filesystem.
//
// Numbers in binary payloads are little-endian. See docs/artifact-format.md
// for the byte-level layout.
package artifact

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"slices"
	"strings"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
	"pcbl/internal/spill"
)

// FormatVersion is the artifact layout version this package writes and
// the only one it reads. Version 4 stores every payload in the run codec.
const FormatVersion = 4

// manifestName is the artifact's index file; its atomic rename into place
// is the save's commit point.
const manifestName = "manifest.json"

// manifestTmpName is the staging name the manifest is written and fsynced
// under before the commit rename.
const manifestTmpName = "manifest.json.tmp"

// PC payload kinds: one run in a file, or K runs in a directory. A key is
// W ≥ 1 uint64 words (PCMeta.Words).
const (
	kindSorted  = "sorted"
	kindSpilled = "spilled"
)

// Typed error classes. Every error OpenFS returns wraps exactly one of
// these (or is an I/O error from the filesystem), so callers can
// distinguish "not an artifact / crashed save" from "damaged artifact"
// from "malformed metadata".
var (
	// ErrIncomplete marks a directory without a readable manifest: either
	// not an artifact at all, or a save that crashed before its commit
	// point. The directory's contents are not trustworthy.
	ErrIncomplete = errors.New("artifact: incomplete artifact (no manifest)")
	// ErrCorrupt marks artifact data that failed checksum or length
	// verification; errors.Is(err, ErrCorrupt) matches every CorruptError.
	ErrCorrupt = errors.New("artifact: corrupt artifact data")
	// ErrManifest marks a manifest that parsed but is structurally invalid
	// (bad version, inconsistent section metadata, duplicate payload
	// references).
	ErrManifest = errors.New("artifact: invalid manifest")
	// ErrEpochMismatch marks an incremental merge whose delta was built
	// against a different artifact state than the one on disk: the base
	// advanced (or shrank) since the delta's rows were counted, so folding
	// the delta in would double- or under-count. Rebuild the delta against
	// the current manifest's epoch and row watermark.
	ErrEpochMismatch = errors.New("artifact: epoch mismatch")
)

// CorruptError reports which artifact file failed verification and how.
// It wraps ErrCorrupt.
type CorruptError struct {
	Path   string // file within the artifact
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("artifact: %s corrupt: %s", e.Path, e.Detail)
}

// Is reports ErrCorrupt as this error's class.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// manifestErr builds an ErrManifest-wrapping error.
func manifestErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrManifest, fmt.Sprintf(format, args...))
}

// castagnoli is the CRC32C table shared by every artifact checksum; the
// same polynomial the spill frames use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// envelope is the on-disk form of manifest.json: the manifest itself as
// a raw JSON value plus a CRC32C over its compacted bytes, so the index
// that describes every other checksum is itself verified.
type envelope struct {
	FormatVersion int             `json:"format_version"`
	CRC32C        uint32          `json:"crc32c"`
	Manifest      json.RawMessage `json:"manifest"`
}

// manifestCRC computes the envelope checksum: CRC32C over the compacted
// (whitespace-normalized) manifest bytes, so the value survives any
// re-indentation a JSON round trip applies.
func manifestCRC(raw []byte) (uint32, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return 0, err
	}
	return crc32.Checksum(buf.Bytes(), castagnoli), nil
}

// Manifest is the artifact's JSON index.
type Manifest struct {
	FormatVersion int `json:"format_version"`

	// Epoch counts the artifact's merge generation: 1 for a fresh save,
	// incremented by every MergeIntoFS. Together with TotalRows it is the
	// watermark an incremental delta binds to — a delta built against
	// epoch E merges only into an artifact still at epoch E. Manifests
	// written before epochs existed decode as epoch 1.
	Epoch int64 `json:"epoch,omitempty"`

	// DeltaOf, when set, marks this artifact as a delta: a label counted
	// over only the rows appended after the base artifact's watermark,
	// mergeable into it with MergeDeltaIntoFS. Nil for ordinary artifacts.
	DeltaOf *DeltaMeta `json:"delta,omitempty"`

	// Dataset schema: enough to rebuild the attribute dictionaries (and
	// thus keyers and pattern parsing) without any row data.
	Dataset   string     `json:"dataset"`
	TotalRows int        `json:"total_rows"`
	Attrs     []AttrMeta `json:"attributes"`

	// LabelAttrs names the attribute set S of the PC section.
	LabelAttrs []string `json:"label_attrs"`

	// PCs describes the payloads: PCs[0] is the label's PC section, the
	// rest are materialized marginal indexes.
	PCs []PCMeta `json:"pcs"`
}

// DeltaMeta binds a delta artifact to the base state it was counted
// against. Both fields must match the base manifest exactly for the
// merge to be sound.
type DeltaMeta struct {
	// BaseEpoch is the base artifact's Epoch at delta-build time.
	BaseEpoch int64 `json:"base_epoch"`
	// BaseRows is the base artifact's TotalRows at delta-build time — the
	// row watermark: the delta's rows are those appended after it.
	BaseRows int `json:"base_rows"`
}

// AttrMeta is one attribute's schema plus its VC entries: Counts[i] is
// c_D({A = Domain[i]}), the count of value identifier i+1.
type AttrMeta struct {
	Name   string   `json:"name"`
	Domain []string `json:"domain"`
	Counts []int    `json:"counts"`
}

// PCMeta describes one pattern-count payload.
type PCMeta struct {
	Attrs []string `json:"attrs"`
	Kind  string   `json:"kind"`
	// Words is the key width W in uint64 words; omitted when 1.
	Words int `json:"words,omitempty"`

	// Sorted kind: the run file, its entry count, byte length and the
	// CRC32C of its bytes.
	File      string `json:"file,omitempty"`
	Entries   int    `json:"entries,omitempty"`
	SizeBytes int64  `json:"size_bytes,omitempty"`
	Checksum  uint32 `json:"crc32c,omitempty"`

	// Spilled kind: the adopted run directory and the read-path metadata.
	Dir      string `json:"dir,omitempty"`
	Size     int    `json:"size,omitempty"`
	RunSizes []int  `json:"run_sizes,omitempty"`
	Budget   int64  `json:"budget,omitempty"`
}

// SaveFS writes label l as an artifact at dir, which must not yet exist
// (or be an empty directory), through the filesystem seam fsys; nil means
// the real OS filesystem, and fault-injection tests script failures and
// crash points here. Spilled pattern-count indexes are not re-counted:
// their on-disk runs are adopted — moved — into the artifact, after which
// l itself serves reads from the artifact's files and l's ReleaseSpill no
// longer deletes them. The save is crash-safe: every payload is fsynced
// before the manifest commits by atomic rename, so a crash at any point
// leaves either no manifest (OpenFS rejects with ErrIncomplete) or a
// complete durable artifact, whatever the failure's class. A full disk
// surfaces as a typed spill.ErrNoSpace. SaveFS requires exclusive access
// to l (no concurrent reads while run files relocate).
func SaveFS(l *core.Label, dir string, fsys iofault.FS) error {
	fsi := iofault.Resolve(fsys)
	if err := saveInto(l, dir, 1, nil, fsi); err != nil {
		return spill.WrapNoSpace(err)
	}
	return nil
}

// SaveDeltaFS writes a delta artifact: label l — counted over ONLY the
// rows appended after the base artifact's watermark — tagged with the
// base's epoch and row count so MergeDeltaIntoFS can later verify it still
// applies. base is the manifest of the artifact the delta extends, as
// returned by OpenFS at delta-build time. Everything else matches SaveFS:
// dir must not yet exist (or be empty), the write is crash-safe and a nil
// fsys means the real OS filesystem.
func SaveDeltaFS(l *core.Label, dir string, base *Manifest, fsys iofault.FS) error {
	if base == nil {
		return fmt.Errorf("artifact: SaveDeltaFS without a base manifest")
	}
	fsi := iofault.Resolve(fsys)
	meta := &DeltaMeta{BaseEpoch: epochOf(base), BaseRows: base.TotalRows}
	return spill.WrapNoSpace(saveInto(l, dir, 1, meta, fsi))
}

// saveInto writes label l as a fresh artifact at dir — the shared body of
// SaveFS, SaveDeltaFS, and (with an epoch suffix on payload names) the merge
// rewrite. dir must not exist or be an empty directory.
func saveInto(l *core.Label, dir string, epoch int64, deltaOf *DeltaMeta, fsi iofault.FS) error {
	if err := fsi.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if ents, err := fsi.ReadDir(dir); err != nil {
		return fmt.Errorf("artifact: %w", err)
	} else if len(ents) != 0 {
		return fmt.Errorf("artifact: directory %s is not empty", dir)
	}
	m, err := writePayloads(l, dir, epoch, deltaOf, "", fsi)
	if err != nil {
		return err
	}
	return commitManifest(m, dir, fsi)
}

// writePayloads serializes every PC payload of l into dir (each fsynced),
// names suffixed with suffix, and returns the manifest describing them —
// built but not yet committed.
func writePayloads(l *core.Label, dir string, epoch int64, deltaOf *DeltaMeta, suffix string, fsi iofault.FS) (*Manifest, error) {
	d := l.Dataset()
	m := &Manifest{
		FormatVersion: FormatVersion,
		Epoch:         epoch,
		DeltaOf:       deltaOf,
		Dataset:       d.Name(),
		TotalRows:     l.Rows(),
		Attrs:         make([]AttrMeta, d.NumAttrs()),
	}
	for a := 0; a < d.NumAttrs(); a++ {
		attr := d.Attr(a)
		dom := attr.Domain()
		counts := make([]int, len(dom))
		for i := range dom {
			counts[i] = l.ValueCount(a, uint16(i+1))
		}
		m.Attrs[a] = AttrMeta{Name: attr.Name(), Domain: dom, Counts: counts}
	}
	m.LabelAttrs = attrNames(d, l.Attrs())

	if err := savePC(m, l.PC(), d, dir, suffix, fsi); err != nil {
		return nil, err
	}
	var merr error
	l.EachMarginal(func(sub lattice.AttrSet, pc *core.PC) {
		if merr == nil {
			merr = savePC(m, pc, d, dir, suffix, fsi)
		}
	})
	if merr != nil {
		return nil, merr
	}
	return m, nil
}

// epochOf reads a manifest's epoch with the pre-epoch default applied.
func epochOf(m *Manifest) int64 {
	if m.Epoch <= 0 {
		return 1
	}
	return m.Epoch
}

// commitManifest writes the self-checksummed manifest envelope and makes
// it — and everything it references — durable: the envelope is staged
// under a temp name and fsynced, the directory is fsynced so every payload
// file is reachable, and only then does the atomic rename commit the
// artifact, followed by a final directory fsync so the commit itself is
// durable.
func commitManifest(m *Manifest, dir string, fsi iofault.FS) error {
	data, err := encodeManifest(m)
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	tmp := filepath.Join(dir, manifestTmpName)
	f, err := fsi.Create(tmp)
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("artifact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("artifact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if err := fsi.SyncDir(dir); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if err := fsi.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if err := fsi.SyncDir(dir); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	return nil
}

// encodeManifest renders manifest.json: the self-checksummed envelope
// around the indented manifest.
func encodeManifest(m *Manifest) ([]byte, error) {
	inner, err := json.MarshalIndent(m, "    ", "  ")
	if err != nil {
		return nil, err
	}
	crc, err := manifestCRC(inner)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(&envelope{
		FormatVersion: FormatVersion,
		CRC32C:        crc,
		Manifest:      inner,
	}, "", "  ")
	return append(data, '\n'), err
}

// crcWriter tees payload bytes into a file while accumulating their
// CRC32C and length for the manifest descriptor.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, castagnoli, p)
	cw.n += int64(len(p))
	return cw.w.Write(p)
}

// savePC serializes one PC payload — fsynced before return — and appends
// its descriptor to m. suffix lands in the payload name before the
// extension ("pc-000<suffix>.bin"); merges use an epoch tag so a new
// generation's payloads never collide with the committed one's.
func savePC(m *Manifest, pc *core.PC, d *dataset.Dataset, dir, suffix string, fsi iofault.FS) error {
	idx := len(m.PCs)
	meta := PCMeta{Attrs: attrNames(d, pc.Attrs())}
	r := pc.Repr()
	if sr := r.Spill; sr != nil {
		meta.Dir = fmt.Sprintf("pc-%03d%s-runs", idx, suffix)
		runDir := filepath.Join(dir, meta.Dir)
		if err := fsi.Mkdir(runDir, 0o755); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
		if err := sr.Runs.AdoptInto(runDir); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
		meta.Kind = kindSpilled
		meta.Words = wordsMeta(sr.Runs.Words())
		meta.Size = sr.Size
		meta.RunSizes = sr.RunSizes
		meta.Budget = sr.Budget
		m.PCs = append(m.PCs, meta)
		return nil
	}
	u := r.U
	meta.Kind = kindSorted
	meta.Words = wordsMeta(u.W)
	meta.Entries = len(u.Counts)
	meta.File = fmt.Sprintf("pc-%03d%s.bin", idx, suffix)
	f, err := fsi.Create(filepath.Join(dir, meta.File))
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	w := &crcWriter{w: f}
	rw := spill.NewRunWriter(w, u.W)
	for i, c := range u.Counts {
		rw.Add(u.Keys[i*u.W:(i+1)*u.W], int(c))
	}
	if err := rw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("artifact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("artifact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	meta.SizeBytes = w.n
	meta.Checksum = w.crc
	m.PCs = append(m.PCs, meta)
	return nil
}

// OpenFS reads an artifact directory through the filesystem seam fsys (nil
// means the real OS filesystem) and reconstructs its label: a schema-only
// dataset (dictionaries, zero rows), the PC section — spilled payloads
// reopen their adopted run files read-only and stream on demand, exactly
// as the building process served them — and every persisted marginal
// index. The returned manifest describes what was loaded.
//
// The manifest is verified eagerly (structure and self-checksum); payload
// bytes are verified as they are read. Errors are typed: ErrIncomplete for
// a missing manifest, ErrManifest for invalid metadata or another format
// version, ErrCorrupt (a CorruptError) for data that fails verification.
// A sorted payload is read and verified whole at open. A spilled
// payload's frame headers must agree with the manifest at open; its
// entries verify when a run is first read, where a failure is a
// spill.ErrCorrupt from the query that read it.
func OpenFS(dir string, fsys iofault.FS) (*core.Label, *Manifest, error) {
	fsi := iofault.Resolve(fsys)
	data, err := fsi.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, fmt.Errorf("%w: %s", ErrIncomplete, dir)
		}
		return nil, nil, fmt.Errorf("artifact: %w", err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, nil, err
	}
	if err := validateManifest(m); err != nil {
		return nil, nil, err
	}

	// Rebuild the schema-only dataset: dictionaries in persisted order, so
	// value identifiers — and therefore every serialized key — line up.
	names := make([]string, len(m.Attrs))
	for i, am := range m.Attrs {
		names[i] = am.Name
	}
	bld := dataset.NewBuilder(m.Dataset, names...)
	for a, am := range m.Attrs {
		for _, v := range am.Domain {
			if _, err := bld.InternValue(a, v); err != nil {
				return nil, nil, fmt.Errorf("artifact: %w", err)
			}
		}
	}
	d, err := bld.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("artifact: %w", err)
	}

	vc := make([][]int, len(m.Attrs))
	for a, am := range m.Attrs {
		vc[a] = am.Counts
	}

	s, err := lattice.FromNames(names, m.LabelAttrs...)
	if err != nil {
		return nil, nil, fmt.Errorf("artifact: %w", err)
	}

	pcs := make([]*core.PC, len(m.PCs))
	for i, pm := range m.PCs {
		pc, err := openPC(d, pm, m.TotalRows, dir, fsi)
		if err != nil {
			// Retire spilled payloads already reopened; they don't own
			// the artifact's files, so nothing is deleted.
			for _, p := range pcs[:i] {
				p.ReleaseSpill()
			}
			return nil, nil, err
		}
		pcs[i] = pc
	}
	if got := attrNames(d, pcs[0].Attrs()); !slices.Equal(got, m.LabelAttrs) {
		return nil, nil, manifestErr("PC payload 0 covers %v, manifest says %v", got, m.LabelAttrs)
	}

	l := core.NewLabelFromParts(d, m.TotalRows, s, pcs[0], vc)
	for i, pc := range pcs[1:] {
		sub := pc.Attrs()
		if !sub.ProperSubsetOf(s) {
			return nil, nil, manifestErr("marginal payload %d covers %v, not a proper subset of %v", i+1, m.PCs[i+1].Attrs, m.LabelAttrs)
		}
		l.PutMarginal(sub, pc)
	}
	return l, m, nil
}

// decodeManifest parses manifest.json: the self-checksummed envelope
// around the manifest. Any other format version fails with ErrManifest
// naming the version found — including a bare manifest without an
// envelope, the layout of format 1.
func decodeManifest(data []byte) (*Manifest, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: bad JSON: %v", ErrManifest, err)
	}
	if env.FormatVersion != FormatVersion {
		return nil, manifestErr("format version %d, this build reads only %d", env.FormatVersion, FormatVersion)
	}
	crc, err := manifestCRC(env.Manifest)
	if err != nil {
		return nil, fmt.Errorf("%w: bad JSON: %v", ErrManifest, err)
	}
	if crc != env.CRC32C {
		return nil, &CorruptError{Path: manifestName,
			Detail: fmt.Sprintf("manifest checksum mismatch (got %08x, want %08x)", crc, env.CRC32C)}
	}
	var m Manifest
	if err := json.Unmarshal(env.Manifest, &m); err != nil {
		return nil, fmt.Errorf("%w: bad JSON: %v", ErrManifest, err)
	}
	if m.FormatVersion != FormatVersion {
		return nil, manifestErr("manifest format version %d inside a v%d envelope", m.FormatVersion, FormatVersion)
	}
	m.Epoch = epochOf(&m)
	return &m, nil
}

// validateManifest rejects structurally inconsistent metadata up front —
// duplicate payload references, run-size tables that disagree with the
// declared size, section byte lengths that cannot match their kind, a row
// count the int32 counts cannot hold — rather than deferring to whatever
// fails first downstream. All errors wrap ErrManifest.
func validateManifest(m *Manifest) error {
	if len(m.PCs) == 0 {
		return manifestErr("no PC payloads")
	}
	if m.Epoch < 1 {
		return manifestErr("epoch %d, want >= 1", m.Epoch)
	}
	if m.TotalRows < 0 || m.TotalRows > math.MaxInt32 {
		return manifestErr("total rows %d outside [0, %d]", m.TotalRows, math.MaxInt32)
	}
	if dm := m.DeltaOf; dm != nil {
		if dm.BaseEpoch < 1 {
			return manifestErr("delta bound to base epoch %d, want >= 1", dm.BaseEpoch)
		}
		if dm.BaseRows < 0 {
			return manifestErr("delta bound to negative base row watermark %d", dm.BaseRows)
		}
	}
	for _, am := range m.Attrs {
		if len(am.Counts) != len(am.Domain) {
			return manifestErr("attribute %q has %d counts for %d values", am.Name, len(am.Counts), len(am.Domain))
		}
	}
	seen := make(map[string]int) // payload file/dir name -> first payload index
	for i, pm := range m.PCs {
		if pm.Words < 0 || pm.Words > maxWords {
			return manifestErr("payload %d kind %q with %d-word keys", i, pm.Kind, pm.Words)
		}
		switch pm.Kind {
		case kindSorted:
			if err := validateRef(seen, pm.File, i, "file"); err != nil {
				return err
			}
			if pm.Dir != "" {
				return manifestErr("payload %d kind %q with a run directory", i, pm.Kind)
			}
			if pm.Entries < 0 || pm.SizeBytes < 0 {
				return manifestErr("payload %d has negative section metadata", i)
			}
		case kindSpilled:
			if err := validateRef(seen, pm.Dir, i, "run directory"); err != nil {
				return err
			}
			if pm.File != "" {
				return manifestErr("payload %d kind %q with a file", i, pm.Kind)
			}
			if len(pm.RunSizes) == 0 {
				return manifestErr("payload %d spilled with no runs", i)
			}
			total := 0
			for r, n := range pm.RunSizes {
				// total stays in [0, size], so neither the sum nor
				// pm.Size-total can overflow.
				if n < 0 || n > pm.Size-total {
					return manifestErr("payload %d run %d has size %d, outside [0, %d]", i, r, n, max(pm.Size-total, 0))
				}
				total += n
			}
			if total != pm.Size {
				return manifestErr("payload %d run sizes sum to %d, manifest says %d", i, total, pm.Size)
			}
			if pm.Budget < 0 {
				return manifestErr("payload %d has negative budget %d", i, pm.Budget)
			}
		default:
			return manifestErr("payload %d has unknown kind %q", i, pm.Kind)
		}
	}
	return nil
}

// validateRef checks one payload's file or directory reference: present,
// a plain name inside the artifact directory, and not already claimed by
// another payload.
func validateRef(seen map[string]int, name string, idx int, what string) error {
	if name == "" {
		return manifestErr("payload %d without a %s", idx, what)
	}
	if name != filepath.Base(name) || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return manifestErr("payload %d %s %q escapes the artifact directory", idx, what, name)
	}
	if first, dup := seen[name]; dup {
		return manifestErr("payloads %d and %d both reference %q", first, idx, name)
	}
	seen[name] = idx
	return nil
}

// openPC loads one PC payload. Each of the label's rows counts toward at
// most one pattern of a PC, so a payload whose counts (for a spilled
// payload, whose frame row totals) add up to more than rows is corrupt.
// That bound also keeps every count a marginal or a merge sums from this
// payload inside the int32 the in-memory layouts store.
func openPC(d *dataset.Dataset, pm PCMeta, rows int, dir string, fsi iofault.FS) (*core.PC, error) {
	s, err := lattice.FromNames(d.AttrNames(), pm.Attrs...)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	r := core.PCRepr{Attrs: s}
	path := pm.File
	switch pm.Kind {
	case kindSpilled:
		path = pm.Dir
		runs, err := spill.Open(filepath.Join(dir, pm.Dir), wordsOf(pm), len(pm.RunSizes), fsi)
		if err != nil {
			if errors.Is(err, spill.ErrCorrupt) {
				return nil, &CorruptError{Path: pm.Dir, Detail: err.Error()}
			}
			return nil, fmt.Errorf("artifact: %w", err)
		}
		// The run sizes size the read path's allocations, so each must be
		// what its run's frame headers declare — which spill.Open bounded by
		// the run's bytes — and the rows the runs count are the label's.
		for run, n := range pm.RunSizes {
			if got := runs.Entries(run); got != n {
				return nil, &CorruptError{Path: pm.Dir, Detail: fmt.Sprintf("run %d holds %d entries, manifest says %d", run, got, n)}
			}
		}
		if got := runs.Rows(); got > int64(rows) {
			return nil, &CorruptError{Path: pm.Dir, Detail: fmt.Sprintf("runs count %d rows of a %d-row label", got, rows)}
		}
		r.Spill = &core.SpillRepr{
			Runs:     runs,
			Size:     pm.Size,
			RunSizes: pm.RunSizes,
			Budget:   pm.Budget,
		}
	case kindSorted:
		data, err := readPayload(dir, pm, fsi)
		if err != nil {
			return nil, err
		}
		if r.U, err = decodeSorted(pm, data, rows); err != nil {
			return nil, err
		}
	default:
		return nil, manifestErr("unknown PC kind %q", pm.Kind)
	}
	pc, err := core.PCFromRepr(d, r, rows)
	if err != nil {
		if r.Spill != nil {
			r.Spill.Runs.Cleanup()
		}
		return nil, &CorruptError{Path: path, Detail: err.Error()}
	}
	return pc, nil
}

// decodeSorted decodes a sorted payload's one run into the sorted layout.
// The run codec verifies every frame and entry; the payload must also
// hold the manifest's entry count, and its counts must add up to at most
// the label's rows.
func decodeSorted(pm PCMeta, data []byte, rows int) (*core.SortedCounts, error) {
	w := wordsOf(pm)
	n := min(pm.Entries, len(data)) // an entry takes at least a byte
	u := &core.SortedCounts{W: w, Keys: make([]uint64, 0, w*n), Counts: make([]int32, 0, n)}
	left := rows
	var over error
	err := spill.ReadRun(nil, bytes.NewReader(data), w, func(key []uint64, c int) bool {
		if c > left {
			over = &CorruptError{Path: pm.File, Detail: fmt.Sprintf("entry %d has count %d, more than the %d rows left uncounted", len(u.Counts), c, left)}
			return false
		}
		left -= c
		u.Keys = append(u.Keys, key...)
		u.Counts = append(u.Counts, int32(c))
		return true
	})
	switch {
	case errors.Is(err, spill.ErrCorrupt):
		return nil, &CorruptError{Path: pm.File, Detail: err.Error()}
	case err != nil:
		return nil, fmt.Errorf("artifact: %w", err)
	case over != nil:
		return nil, over
	case len(u.Counts) != pm.Entries:
		return nil, &CorruptError{Path: pm.File, Detail: fmt.Sprintf("%d entries, manifest says %d", len(u.Counts), pm.Entries)}
	}
	return u, nil
}

// maxWords bounds a manifest's key width: lattice.MaxAttrs members, at
// least three to a word.
const maxWords = (lattice.MaxAttrs + 2) / 3

// wordsOf is a payload's key width: its Words, 1 when omitted.
func wordsOf(pm PCMeta) int { return max(pm.Words, 1) }

// wordsMeta is the Words a manifest records for a key width: omitted
// (0) for one word.
func wordsMeta(w int) int {
	if w == 1 {
		return 0
	}
	return w
}

// readPayload reads one payload file whole and verifies its length and
// CRC32C against the manifest descriptor.
func readPayload(dir string, pm PCMeta, fsi iofault.FS) ([]byte, error) {
	data, err := fsi.ReadFile(filepath.Join(dir, pm.File))
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if int64(len(data)) != pm.SizeBytes {
		return nil, &CorruptError{Path: pm.File,
			Detail: fmt.Sprintf("%d bytes, manifest says %d", len(data), pm.SizeBytes)}
	}
	if got := crc32.Checksum(data, castagnoli); got != pm.Checksum {
		return nil, &CorruptError{Path: pm.File,
			Detail: fmt.Sprintf("section checksum mismatch (got %08x, want %08x)", got, pm.Checksum)}
	}
	return data, nil
}

// attrNames resolves an attribute set to names in member order.
func attrNames(d *dataset.Dataset, s lattice.AttrSet) []string {
	members := s.Members()
	out := make([]string, len(members))
	for i, a := range members {
		out[i] = d.Attr(a).Name()
	}
	return out
}
