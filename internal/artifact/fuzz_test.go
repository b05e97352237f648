package artifact

// FuzzDecodeManifest hardens the artifact's front door: manifest bytes are
// the one input an attacker (or a corrupted disk) fully controls, and the
// decode + validate pipeline must reject anything malformed with a typed
// error — never panic, never hand Open a manifest whose reference or
// length arithmetic is inconsistent.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// seedManifests covers the current envelope, bare manifests of format 1
// (which take the rejection path: only the current format is read), and
// the common corruption shapes of each.
var seedManifests = []string{
	// Minimal well-formed format-1 (bare) manifest.
	`{"format_version":1,"dataset":"d","total_rows":2,
	  "attributes":[{"name":"a0","domain":["x"],"counts":[2]}],
	  "label_attrs":["a0"],
	  "pcs":[{"attrs":["a0"],"kind":"dense","file":"pc-000.bin","distinct":1}]}`,
	// Current envelope around the same manifest (checksum intentionally wrong
	// in most mutations the fuzzer derives; the seed itself uses 0).
	`{"format_version":2,"crc32c":0,"manifest":{"format_version":2,
	  "dataset":"d","total_rows":2,
	  "attributes":[{"name":"a0","domain":["x"],"counts":[2]}],
	  "label_attrs":["a0"],
	  "pcs":[{"attrs":["a0"],"kind":"dense","file":"pc-000.bin","distinct":1,
	          "size_bytes":4,"crc32c":1}]}}`,
	// Spilled payload metadata.
	`{"format_version":1,"dataset":"d","total_rows":4,
	  "attributes":[{"name":"a0","domain":["x","y"],"counts":[2,2]}],
	  "label_attrs":["a0"],
	  "pcs":[{"attrs":["a0"],"kind":"spilled-u64","dir":"pc-000-runs",
	          "rec_width":8,"size":2,"run_sizes":[1,1],"budget":1024}]}`,
	// Hostile shapes: duplicate refs, traversal, length mismatches.
	`{"format_version":1,"pcs":[{"kind":"dense","file":"../../etc/passwd"}]}`,
	`{"format_version":2,"crc32c":12345,"manifest":{}}`,
	`{"format_version":99}`, `{}`, `null`, `[]`, `"x"`, `{"manifest":`,
	// Format-4 sorted and spilled payloads (checksum 0, as above).
	`{"format_version":4,"crc32c":0,"manifest":{"format_version":4,
	  "dataset":"d","total_rows":2,
	  "attributes":[{"name":"a0","domain":["x"],"counts":[2]}],
	  "label_attrs":["a0"],
	  "pcs":[{"attrs":["a0"],"kind":"sorted","file":"pc-000.bin","entries":1,
	          "size_bytes":18,"crc32c":1}]}}`,
	`{"format_version":4,"crc32c":0,"manifest":{"format_version":4,
	  "dataset":"d","total_rows":4,
	  "attributes":[{"name":"a0","domain":["x","y"],"counts":[2,2]}],
	  "label_attrs":["a0"],
	  "pcs":[{"attrs":["a0"],"kind":"spilled","dir":"pc-000-runs","words":2,
	          "size":2,"run_sizes":[1,1],"budget":1024}]}}`,
}

func FuzzDecodeManifest(f *testing.F) {
	for _, s := range seedManifests {
		f.Add(s)
	}
	// A genuine saved manifest (correct CRC) seeds the valid-input space.
	if real := realManifest(f); real != "" {
		f.Add(real)
		f.Add(strings.Replace(real, `"kind"`, `"kine"`, 1))
		f.Add(strings.Replace(real, `2`, `1`, 1))
	}
	f.Fuzz(func(t *testing.T, data string) {
		m, err := decodeManifest([]byte(data))
		if err != nil {
			return // rejected cleanly
		}
		// A decoded manifest must also validate without panicking; if it
		// validates, its internal arithmetic is consistent enough for
		// openPC, whose remaining failure modes are file I/O.
		if err := validateManifest(m); err != nil {
			return
		}
		// Accepted manifests re-encode: the struct round-trips as JSON.
		if _, err := json.Marshal(m); err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
	})
}

// realManifest produces the exact bytes Save writes, so the corpus always
// contains one input that takes the fully-valid path (correct envelope
// CRC included). Returns "" if the build fails — the fuzz target still
// runs on the synthetic seeds.
func realManifest(f *testing.F) string {
	names := []string{"a0", "a1", "a2"}
	bld := dataset.NewBuilder("fuzzseed", names...)
	for a := range names {
		for v := 0; v < 4; v++ {
			if _, err := bld.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				return ""
			}
		}
	}
	for r := 0; r < 200; r++ {
		bld.AppendStrings(fmt.Sprintf("v%d", r%4), fmt.Sprintf("v%d", (r/2)%4), fmt.Sprintf("v%d", (r/3)%4))
	}
	d, err := bld.Build()
	if err != nil {
		return ""
	}
	l := must(core.BuildLabel(d, lattice.FullSet(2), core.CountOptions{}))
	dir := filepath.Join(f.TempDir(), "a")
	if err := Save(l, dir); err != nil {
		return ""
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return ""
	}
	return string(data)
}
