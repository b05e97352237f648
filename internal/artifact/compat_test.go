package artifact

// v1 read-compat: artifacts written by the original layout — bare JSON
// manifest, no checksums, raw (unframed) spill runs — must still open and
// answer bit-identically. No v1 writer survives in the tree, so the test
// down-converts a freshly saved v2 artifact: strip the manifest envelope
// and the v2-only fields, and splice the frame headers out of every run
// file. That exercises exactly the code paths a real v1 artifact hits
// (bare-manifest decoding, checksum-free payload reads, raw run scans).

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/lattice"
)

// downConvertV1 rewrites the artifact at dir in place from v2 to v1.
func downConvertV1(t *testing.T, dir string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(env.Manifest, &m); err != nil {
		t.Fatal(err)
	}
	m["format_version"] = 1
	pcs, ok := m["pcs"].([]any)
	if !ok {
		t.Fatal("manifest without pcs")
	}
	for _, p := range pcs {
		pm := p.(map[string]any)
		delete(pm, "size_bytes")
		delete(pm, "crc32c")
		delete(pm, "framed")
		if runDir, ok := pm["dir"].(string); ok && runDir != "" {
			unframeRuns(t, filepath.Join(dir, runDir))
		}
	}
	bare, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), bare, 0o644); err != nil {
		t.Fatal(err)
	}
}

// unframeRuns strips the [len][crc] frame headers from every run file,
// leaving the raw record concatenation of the v1 layout.
func unframeRuns(t *testing.T, runDir string) {
	t.Helper()
	ents, err := os.ReadDir(runDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(runDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var raw []byte
		for off := 0; off < len(data); {
			if off+frameHdrLen > len(data) {
				t.Fatalf("%s: torn frame header at %d", path, off)
			}
			plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
			off += frameHdrLen
			if off+plen > len(data) {
				t.Fatalf("%s: torn frame payload at %d", path, off)
			}
			raw = append(raw, data[off:off+plen]...)
			off += plen
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// frameHdrLen mirrors internal/spill's frame header size; the constant is
// asserted against a saved run file rather than imported, so a layout
// change breaks this test loudly.
const frameHdrLen = 8

func TestOpenV1Artifact(t *testing.T) {
	for _, spilled := range []bool{false, true} {
		o := newSweepOracle(t)
		dir := filepath.Join(t.TempDir(), "a")
		var l *core.Label
		if spilled {
			l = o.buildSpilled(t, t.TempDir(), nil)
		} else {
			l = must(core.BuildLabel(o.d, lattice.FullSet(4), core.CountOptions{}))
		}
		if err := Save(l, dir); err != nil {
			t.Fatal(err)
		}
		l.ReleaseSpill()
		downConvertV1(t, dir)

		rl, m, err := Open(dir)
		if err != nil {
			t.Fatalf("spilled=%v: opening down-converted v1 artifact: %v", spilled, err)
		}
		if m.FormatVersion != 1 {
			t.Fatalf("spilled=%v: manifest version %d, want 1", spilled, m.FormatVersion)
		}
		if got := o.check(t, "v1compat", rl); got != len(o.probes) {
			t.Fatalf("spilled=%v: v1 artifact answered only %d/%d probes", spilled, got, len(o.probes))
		}
		rl.ReleaseSpill()
	}
}

// TestResaveV1KeepsAnswers: a v1 artifact reopened and saved again becomes
// a v2 artifact (checksummed manifest; runs stay raw and are marked
// unframed) that still answers bit-identically.
func TestResaveV1KeepsAnswers(t *testing.T) {
	o := newSweepOracle(t)
	dir := filepath.Join(t.TempDir(), "a")
	l := o.buildSpilled(t, t.TempDir(), nil)
	if err := Save(l, dir); err != nil {
		t.Fatal(err)
	}
	l.ReleaseSpill()
	downConvertV1(t, dir)
	rl, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dir2 := filepath.Join(t.TempDir(), "b")
	if err := Save(rl, dir2); err != nil {
		t.Fatalf("resaving reopened v1 artifact: %v", err)
	}
	rl.ReleaseSpill()
	rl2, m2, err := Open(dir2)
	if err != nil {
		t.Fatalf("opening resaved artifact: %v", err)
	}
	if m2.FormatVersion != FormatVersion {
		t.Fatalf("resaved artifact version %d, want %d", m2.FormatVersion, FormatVersion)
	}
	if got := o.check(t, "v1resave", rl2); got != len(o.probes) {
		t.Fatalf("resaved artifact answered only %d/%d probes", got, len(o.probes))
	}
	rl2.ReleaseSpill()
}
