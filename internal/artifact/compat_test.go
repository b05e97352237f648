package artifact

// Older formats fail typed: this build reads only the current artifact
// format. No writer of an older format survives in the tree, so the test
// down-converts a freshly saved artifact: version 3 stored a file payload
// as fixed-width (key words, int64 count) entries (kind u64; dense slabs
// were kind dense) and spilled runs as today (kind spilled-u64, with a
// rec_width field); version 2 kept the checksummed manifest envelope but
// stored a spilled run as one 8-byte key record per counted row in
// [len][crc] frames; version 1 had neither the envelope and checksums nor
// the frames.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/lattice"
)

// downConvert rewrites the artifact at dir in place into format version
// 1, 2 or 3.
func downConvert(t *testing.T, dir string, version int) {
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
	m["format_version"] = version
	pcs, ok := m["pcs"].([]any)
	if !ok {
		t.Fatal("manifest without pcs")
	}
	for _, p := range pcs {
		pm := p.(map[string]any)
		words := 1
		if w, ok := pm["words"].(float64); ok {
			words = int(w)
		}
		if file, ok := pm["file"].(string); ok && file != "" {
			pm["kind"] = "u64"
			pm["size_bytes"], pm["crc32c"] = fixedEntries(t, filepath.Join(dir, file), words)
		}
		if runDir, ok := pm["dir"].(string); ok && runDir != "" {
			pm["kind"], pm["rec_width"] = "spilled-u64", 8
			if version < 3 {
				recordRuns(t, filepath.Join(dir, runDir), words, version == 2)
			}
		}
		if version == 1 {
			delete(pm, "size_bytes")
			delete(pm, "crc32c")
		}
	}
	var out []byte
	if version == 1 {
		out, err = json.MarshalIndent(m, "", "  ")
	} else {
		if env.Manifest, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if env.CRC32C, err = manifestCRC(env.Manifest); err != nil {
			t.Fatal(err)
		}
		env.FormatVersion = version
		out, err = json.MarshalIndent(&env, "", "  ")
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fixedEntries rewrites the sorted payload at path as the u64 payload of
// formats 1 to 3 — per entry the key's words-word record and an int64
// count — and returns its length and CRC32C.
func fixedEntries(t *testing.T, path string, words int) (int64, uint32) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := decodeRunRef(data, words)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var out []byte
	for _, en := range entries {
		for _, word := range en.key {
			out = binary.LittleEndian.AppendUint64(out, word)
		}
		out = binary.LittleEndian.AppendUint64(out, en.count)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return int64(len(out)), crc32.Checksum(out, castagnoli)
}

// recordRuns rewrites every sorted run in runDir as the record layout of
// formats 1 and 2: each entry's key record repeated once per counted row,
// in [len][crc32c] frames when framed.
func recordRuns(t *testing.T, runDir string, words int, framed bool) {
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
		entries, _, err := decodeRunRef(data, words)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var recs []byte
		for _, en := range entries {
			var rec []byte
			for _, word := range en.key {
				rec = binary.LittleEndian.AppendUint64(rec, word)
			}
			for c := uint64(0); c < en.count; c++ {
				recs = append(recs, rec...)
			}
		}
		out := recs
		if framed && len(recs) > 0 {
			out = binary.LittleEndian.AppendUint32(nil, uint32(len(recs)))
			out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(recs, castagnoli))
			out = append(out, recs...)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOlderFormatsFailTyped: an artifact of format 1, 2 or 3, in memory
// or spilled, fails Open with ErrManifest naming its version, before any
// payload is read. None ever answers a count.
func TestOlderFormatsFailTyped(t *testing.T) {
	o := newSweepOracle(t)
	for _, version := range []int{1, 2, 3} {
		for _, spilled := range []bool{false, true} {
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
			downConvert(t, dir, version)
			want := fmt.Sprintf("format version %d", version)
			if _, _, err := Open(dir); !errors.Is(err, ErrManifest) || !strings.Contains(err.Error(), want) {
				t.Fatalf("spilled=%v: Open of a format-%d artifact: %v, want ErrManifest naming %s", spilled, version, err, want)
			}
		}
	}
}

// TestOpenIgnoresFramedField: a descriptor field this build does not
// read — here the "framed" flag format-2 writers once set on spilled
// payloads — is ignored, and the artifact opens and answers like a fresh
// save.
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

// TestRemovedKindsFailManifest: the payload kinds of earlier writers —
// bytes and spilled-bytes, whose keys are now uint64 words, and dense,
// u64 and spilled-u64, whose payloads are now one run codec — fail Open
// with ErrManifest, in a current manifest whose payloads are otherwise
// intact.
func TestRemovedKindsFailManifest(t *testing.T) {
	o := newSweepOracle(t)
	for _, tc := range []struct {
		set     lattice.AttrSet // a single attribute is dense in memory
		spilled bool
		kind    string
	}{
		{lattice.FullSet(4), false, "bytes"},
		{lattice.FullSet(4), true, "spilled-bytes"},
		{lattice.NewAttrSet(0), false, "dense"},
		{lattice.FullSet(4), false, "u64"},
		{lattice.FullSet(4), true, "spilled-u64"},
	} {
		dir := filepath.Join(t.TempDir(), "a")
		l := must(core.BuildLabel(o.d, tc.set, core.CountOptions{}))
		if tc.spilled {
			l = o.buildSpilled(t, t.TempDir(), nil)
		}
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
		pm := m["pcs"].([]any)[0].(map[string]any)
		pm["kind"] = tc.kind
		if tc.spilled {
			pm["rec_width"] = 8
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
		if _, _, err := Open(dir); !errors.Is(err, ErrManifest) {
			t.Fatalf("kind %q: Open = %v, want ErrManifest", tc.kind, err)
		}
	}
}
