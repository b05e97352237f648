package artifact

// One-word keys keep their bytes: the payload files and the manifest's
// payload descriptors of saved dense, u64 and spilled-u64 labels are
// pinned by SHA-256 on fixed seeds, so a change to how wider keys are
// stored cannot move a single byte of the one-word formats.

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
		kind          string
		rows, domain  int
		nullRate      float64
		budget        int64
		pcs, payloads string
	}{
		{"dense", 2000, 6, 0, 0,
			"78924363c448e72d8ef7cd41bab7f215bde4ea3a6d6718ee5807e53b1bd75b37",
			"1ffca82a9a8e7952cf44e8d16fadb9c672c63516c51df267467a58ea5e768124"},
		{"u64", 2000, 50, 0.05, 0,
			"5c5d1c960aa4aabace0c114f20fcd395fdea52133cf3fea868f0178a3dcb90ea",
			"ab14bb5f68f973b31ba39804cbd4c3ee65d5326fbe88a4fe2aef5a57daaf1424"},
		{"spilled-u64", 4000, 300, 0, 16 << 10,
			"f17c99f08703edb44c55fc268df1ba42fa158ea17a7a085a91b4c9c7e12e322b",
			"15a9e887af49e7a75af82eb1f7f0f6d29f42b2b4eb961d3cc4d56762696125b7"},
	}
	for i, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			d := genDataset(t, c.rows, 4, c.domain, c.nullRate, 0xD16+uint64(i))
			l := must(core.BuildLabel(d, lattice.FullSet(4), core.CountOptions{
				Workers: 1, MemBudget: c.budget, SpillDir: t.TempDir(),
			}))
			dir := filepath.Join(t.TempDir(), c.kind)
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
