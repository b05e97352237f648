package artifact

// Older formats fail typed: this build reads only the current artifact
// format. No writer of an older format survives in the tree, so the test
// down-converts a freshly saved artifact: version 2 kept the checksummed
// manifest envelope but stored a spilled run as one 8-byte key record per
// counted row in [len][crc] frames; version 1 had neither the envelope
// and checksums nor the frames.

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
// 1 or 2.
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
		if version == 1 {
			delete(pm, "size_bytes")
			delete(pm, "crc32c")
		}
		if runDir, ok := pm["dir"].(string); ok && runDir != "" {
			words := 1
			if w, ok := pm["words"].(float64); ok {
				words = int(w)
			}
			recordRuns(t, filepath.Join(dir, runDir), words, version == 2)
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

// TestOlderFormatsFailTyped: an artifact of format 1 or 2, dense or
// spilled, fails Open with ErrManifest naming its version, before any run
// is read. Neither ever answers a count.
func TestOlderFormatsFailTyped(t *testing.T) {
	o := newSweepOracle(t)
	for _, version := range []int{1, 2} {
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

// TestRemovedKindsFailManifest: the bytes and spilled-bytes payload kinds
// of earlier writers — keys past one word are u64 payloads of more words
// now — fail Open with ErrManifest, as does a words field on a dense
// payload.
func TestRemovedKindsFailManifest(t *testing.T) {
	o := newSweepOracle(t)
	for _, tc := range []struct {
		set     lattice.AttrSet // a single attribute saves as a dense payload
		spilled bool
		field   string
		value   any
	}{
		{lattice.FullSet(4), false, "kind", "bytes"},
		{lattice.FullSet(4), true, "kind", "spilled-bytes"},
		{lattice.NewAttrSet(0), false, "words", 2},
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
		if tc.field == "words" && pm["kind"] != kindDense {
			t.Fatalf("single-attribute label saved as %v, want dense", pm["kind"])
		}
		pm[tc.field] = tc.value
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
			t.Fatalf("%s %v: Open = %v, want ErrManifest", tc.field, tc.value, err)
		}
	}
}
