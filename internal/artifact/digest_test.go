package artifact

// One-word keys keep their bytes: the payload files and the manifest's
// payload descriptors of labels whose PC section is dense, sorted or
// spilled in memory are pinned by SHA-256 on fixed seeds, so a change to
// how wider keys are stored cannot move a single byte of the one-word
// payloads. The spilled case's run files are the bytes format 3 wrote.
// The dense and u64 cases save a PC section that is dense and sorted in
// memory: the tier rules make a 4×6 key space dense and a 4×50 one sorted
// at 2,000 rows (internal/core's TestPortableTiersMatchBuild).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/lattice"
)

// dirDigest is the SHA-256 of every payload a manifest names, in manifest
// order: each payload file, or each file of a run directory in name order.
func dirDigest(t *testing.T, dir string, m *Manifest) string {
	t.Helper()
	h := sha256.New()
	for _, pm := range m.PCs {
		paths := []string{filepath.Join(dir, pm.File)}
		if pm.Dir != "" {
			ents, err := os.ReadDir(filepath.Join(dir, pm.Dir))
			if err != nil {
				t.Fatal(err)
			}
			paths = paths[:0]
			for _, e := range ents {
				paths = append(paths, filepath.Join(dir, pm.Dir, e.Name()))
			}
			slices.Sort(paths)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(filepath.Base(p)))
			h.Write(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestOneWordPayloadsPinned(t *testing.T) {
	cases := []struct {
		name, kind    string // the format-3 payload kind the case pinned, and its kind now
		rows, domain  int
		nullRate      float64
		budget        int64
		pcs, payloads string
	}{
		{"dense", kindSorted, 2000, 6, 0, 0,
			"d2bfe57f139ff3b8a4f5cb263849ffa00ede41312c7f91ba8b2dd8cbaba3a114",
			"22ea93648f443a700bc6499bea079e58d2f4a748be7dc74df90d18304712fb36"},
		{"u64", kindSorted, 2000, 50, 0.05, 0,
			"74785f627634ec2119e6c72d50f2046231be76ebed8b88b9e8abdca7e02829f3",
			"a1aa1f29ddda87a2ac12e85d3f1968edc5fa2ed057646cff3ee5a7fd998a754a"},
		{"spilled-u64", kindSpilled, 4000, 300, 0, 16 << 10,
			"41db2d4e0170009a53b222696eef0a7ea9a884e27c05e6f80ce5f0f111ea36d9",
			"15a9e887af49e7a75af82eb1f7f0f6d29f42b2b4eb961d3cc4d56762696125b7"},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := genDataset(t, c.rows, 4, c.domain, c.nullRate, 0xD16+uint64(i))
			l := must(core.BuildLabel(d, lattice.FullSet(4), core.CountOptions{
				Workers: 1, MemBudget: c.budget, SpillDir: t.TempDir(),
			}))
			dir := filepath.Join(t.TempDir(), c.name)
			if err := Save(l, dir); err != nil {
				t.Fatal(err)
			}
			l.ReleaseSpill()
			rl, m, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer rl.ReleaseSpill()
			if len(m.PCs) != 1 || m.PCs[0].Kind != c.kind {
				t.Fatalf("saved %d payloads, the first of kind %q; want one %q", len(m.PCs), m.PCs[0].Kind, c.kind)
			}
			pcs, err := json.Marshal(m.PCs)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(pcs)
			if got := hex.EncodeToString(sum[:]); got != c.pcs {
				t.Errorf("manifest pcs %s digest %s, want %s", pcs, got, c.pcs)
			}
			if got := dirDigest(t, dir, m); got != c.payloads {
				t.Errorf("payload digest %s, want %s", got, c.payloads)
			}
		})
	}
}
