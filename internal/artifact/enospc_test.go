package artifact

// Disk exhaustion during artifact writes is a first-class, typed failure:
// every public write entry point — SaveFS, SaveDeltaFS, MergeIntoFS,
// MergeDeltaIntoFS — surfaces an injected ENOSPC as spill.ErrNoSpace
// through its error chain, so operators can distinguish "volume full" from
// corruption, and the crash-safety contract (previous generation intact)
// holds as for any other mid-write failure.

import (
	"errors"
	"path/filepath"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/iofault"
	"pcbl/internal/lattice"
	"pcbl/internal/spill"
)

func TestSaveENOSPCTypedError(t *testing.T) {
	d := genDataset(t, 1000, 3, 50, 0, 0xE0)
	l := must(core.BuildLabel(d, lattice.FullSet(3), core.CountOptions{}))
	ffs := iofault.NewFaultFS(nil)
	ffs.NoSpaceFrom(iofault.OpWrite, 1)
	err := SaveFS(l, filepath.Join(t.TempDir(), "a"), ffs)
	if !errors.Is(err, spill.ErrNoSpace) {
		t.Fatalf("SaveFS on full disk: err = %v, want spill.ErrNoSpace in the chain", err)
	}
}

func TestSaveDeltaENOSPCTypedError(t *testing.T) {
	f := newMergeFixture(t)
	m := f.saveBase(t, filepath.Join(t.TempDir(), "base"))
	dl := f.deltaLabel(t)
	ffs := iofault.NewFaultFS(nil)
	ffs.NoSpaceFrom(iofault.OpCreate, 1)
	err := SaveDeltaFS(dl, filepath.Join(t.TempDir(), "delta"), m, ffs)
	if !errors.Is(err, spill.ErrNoSpace) {
		t.Fatalf("SaveDeltaFS on full disk: err = %v, want spill.ErrNoSpace in the chain", err)
	}
}

// TestMergeENOSPCTypedErrorKeepsBaseServing: a merge of a delta label
// (MergeIntoFS) or of a saved delta artifact (MergeDeltaIntoFS) on a full
// disk fails with spill.ErrNoSpace, the base still opens at its epoch, and
// once the disk has room the same delta merges.
func TestMergeENOSPCTypedErrorKeepsBaseServing(t *testing.T) {
	for _, saved := range []bool{false, true} {
		name := "MergeIntoFS"
		if saved {
			name = "MergeDeltaIntoFS"
		}
		t.Run(name, func(t *testing.T) {
			f := newMergeFixture(t)
			dir := filepath.Join(t.TempDir(), "base")
			m := f.saveBase(t, dir)
			dl := f.deltaLabel(t)
			deltaDir := filepath.Join(t.TempDir(), "delta")
			if saved {
				if err := SaveDeltaFS(dl, deltaDir, m, nil); err != nil {
					t.Fatal(err)
				}
			}
			merge := func(fsys iofault.FS) (*Manifest, error) {
				if saved {
					return MergeDeltaIntoFS(dir, deltaDir, fsys)
				}
				return MergeIntoFS(dir, dl, m, fsys)
			}

			ffs := iofault.NewFaultFS(nil)
			ffs.NoSpaceFrom(iofault.OpWrite, 1)
			if _, err := merge(ffs); !errors.Is(err, spill.ErrNoSpace) {
				t.Fatalf("%s on full disk: err = %v, want spill.ErrNoSpace in the chain", name, err)
			}

			// The base generation survives the failed merge untouched.
			_, om, oerr := OpenFS(dir, nil)
			if oerr != nil {
				t.Fatalf("base artifact unreadable after failed merge: %v", oerr)
			}
			if om.Epoch != m.Epoch {
				t.Fatalf("failed merge moved the epoch: %d -> %d", m.Epoch, om.Epoch)
			}
			// The delta is still bound to that generation: once the disk
			// has room, it merges.
			nm, err := merge(nil)
			if err != nil {
				t.Fatalf("%s after the disk healed: %v", name, err)
			}
			if nm.Epoch != m.Epoch+1 || nm.TotalRows != f.d.NumRows() {
				t.Fatalf("healed merge: epoch %d rows %d, want %d, %d", nm.Epoch, nm.TotalRows, m.Epoch+1, f.d.NumRows())
			}
		})
	}
}
