package artifact

// Older formats fail typed: this build reads only the current artifact
// format. No writer of an older format survives in the tree, so the test
// down-converts a freshly saved artifact: strip the manifest envelope and
// the checksum fields, and splice the frame headers out of every run file.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/lattice"
	"pcbl/internal/spill"
)

// downConvertV1 rewrites the artifact at dir in place into format 1: a
// bare manifest without checksums over raw (unframed) runs.
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
// leaving the raw record concatenation of format 1.
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

// TestOlderFormatsFailTyped: a format-1 artifact fails Open with
// ErrManifest naming its version, and a current manifest over unframed
// runs — what resaving a format-1 artifact wrote — fails as corrupt, at
// Open or at its first lookup. Neither ever answers a count.
func TestOlderFormatsFailTyped(t *testing.T) {
	o := newSweepOracle(t)
	save := func(spilled bool) string {
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
		return dir
	}

	for _, spilled := range []bool{false, true} {
		dir := save(spilled)
		downConvertV1(t, dir)
		if _, _, err := Open(dir); !errors.Is(err, ErrManifest) || !strings.Contains(err.Error(), "format version 1") {
			t.Fatalf("spilled=%v: Open of a format-1 artifact: %v, want ErrManifest naming format 1", spilled, err)
		}
	}

	dir := save(true)
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, pm := range m.PCs {
		if pm.Dir != "" {
			unframeRuns(t, filepath.Join(dir, pm.Dir))
		}
	}
	rl, _, err := Open(dir)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open over unframed runs: %v, want ErrCorrupt", err)
		}
		return
	}
	defer rl.ReleaseSpill()
	for i, p := range o.probes {
		c, _, err := rl.CountCtx(nil, reopenedPattern(t, o.d, rl.Dataset(), p))
		if err == nil {
			t.Fatalf("probe %d counted %d from unframed runs", i, c)
		}
		if !errors.Is(err, spill.ErrCorrupt) {
			t.Fatalf("probe %d over unframed runs: %v, want a corrupt-run error", i, err)
		}
	}
}

// TestOpenIgnoresFramedField: manifests written before the run layout
// became the only one carry "framed": true on every spilled payload. The
// field is no longer read, and such an artifact opens and answers like a
// fresh save.
func TestOpenIgnoresFramedField(t *testing.T) {
	o := newSweepOracle(t)
	dir := filepath.Join(t.TempDir(), "a")
	l := o.buildSpilled(t, t.TempDir(), nil)
	if err := Save(l, dir); err != nil {
		t.Fatal(err)
	}
	l.ReleaseSpill()

	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
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
	spilled := 0
	for _, p := range m["pcs"].([]any) {
		if pm := p.(map[string]any); pm["dir"] != nil {
			pm["framed"] = true
			spilled++
		}
	}
	if spilled == 0 {
		t.Fatal("saved label has no spilled payload")
	}
	if env.Manifest, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if env.CRC32C, err = manifestCRC(env.Manifest); err != nil {
		t.Fatal(err)
	}
	if raw, err = json.Marshal(&env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rl, _, err := Open(dir)
	if err != nil {
		t.Fatalf("Open of a manifest carrying \"framed\": %v", err)
	}
	defer rl.ReleaseSpill()
	if got := o.check(t, "framed-field", rl); got != len(o.probes) {
		t.Fatalf("answered %d/%d probes", got, len(o.probes))
	}
}
