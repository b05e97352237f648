// Incremental artifact maintenance: folding a delta label into a
// committed artifact without rebuilding it from the full dataset.
//
// A merge reuses the save path's crash-safety wholesale. The updated
// payloads are written under epoch-tagged names ("pc-000-e2.bin",
// "pc-000-e2-runs/") that cannot collide with the committed generation's,
// each fsynced, and the new manifest — epoch incremented, row watermark
// advanced — then lands by the same atomic rename that commits a fresh
// save. A crash at any instant before the rename leaves the old manifest
// describing the old payloads, all untouched; a crash after it leaves the
// new artifact complete. The only residue a crash can leave is garbage:
// new-generation payloads no manifest references (pre-commit) or
// old-generation payloads nothing references (post-commit, before the
// cleanup sweep) — both invisible to Open, which reads only what the
// manifest names.
//
// A spilled payload is read by path (spill.Runs holds no open files), so
// a label opened at a generation keeps reading that generation's run
// directories after a merge supersedes it: a daemon not yet reloaded, a
// request still in flight across a reload, a label whose runs Save
// adopted. A merge therefore deletes the superseded generation's payload
// files once it commits, but leaves its run directories to the next
// merge's pre-merge sweep: every label stays able to load its runs
// through the update that supersedes it, and the directory holds at most
// the current and the previous generation's runs.
package artifact

import (
	"errors"
	"fmt"
	"path/filepath"

	"pcbl/internal/core"
	"pcbl/internal/iofault"
	"pcbl/internal/spill"
)

// MergeInto folds delta — a label counted over ONLY the rows appended
// after the base artifact's watermark — into the artifact at baseDir,
// committing an updated artifact in place whose label is bit-identical to
// a full rebuild over base+delta rows. base is the manifest the delta was
// built against (from Open at delta-build time); if the on-disk artifact
// has moved past that epoch or row watermark the merge is rejected with
// ErrEpochMismatch and the artifact is untouched. A nil base skips the
// watermark check (callers that hold the artifact exclusively).
//
// The commit is crash-safe with the same contract as Save: at every
// instant the directory holds one complete, consistent artifact — the old
// one until the manifest rename, the merged one after. The superseded
// generation's payload files are deleted only after the commit, best
// effort; a crash may leave them behind as unreferenced garbage. Its run
// directories stay until the next merge, so a label opened before this
// one still loads every run.
func MergeInto(baseDir string, delta *core.Label, base *Manifest) (*Manifest, error) {
	return MergeIntoFS(baseDir, delta, base, nil)
}

// MergeIntoFS is MergeInto with an explicit filesystem seam; nil means
// the real OS filesystem. A full disk surfaces as a typed spill.ErrNoSpace;
// the crash-safety contract holds regardless of the failure's class (the
// old artifact stays committed).
func MergeIntoFS(baseDir string, delta *core.Label, base *Manifest, fsys iofault.FS) (*Manifest, error) {
	nm, err := mergeIntoFS(baseDir, delta, base, fsys)
	if err != nil {
		return nil, spill.WrapNoSpace(err)
	}
	return nm, nil
}

func mergeIntoFS(baseDir string, delta *core.Label, base *Manifest, fsys iofault.FS) (*Manifest, error) {
	fsi := iofault.Resolve(fsys)
	l, m, err := OpenFS(baseDir, fsys)
	if err != nil {
		return nil, err
	}
	defer l.ReleaseSpill()
	if base != nil && (m.Epoch != epochOf(base) || m.TotalRows != base.TotalRows) {
		return nil, fmt.Errorf("%w: artifact at %s is at epoch %d with %d rows, delta was built against epoch %d with %d rows",
			ErrEpochMismatch, baseDir, m.Epoch, m.TotalRows, epochOf(base), base.TotalRows)
	}

	// Pre-merge sweep: a merge that crashed before its commit point (or
	// after it, before its own sweep) leaves payloads no manifest
	// references — including names this merge is about to write, which
	// would otherwise collide — and the last merge left the run
	// directories of the generation it superseded. Anything the committed
	// manifest doesn't name is garbage by construction; clear it, best
	// effort.
	if err := sweepUnreferenced(baseDir, m, fsi); err != nil {
		return nil, err
	}

	// Merge in core. The runs a spilled merge writes go through the same
	// filesystem seam as the artifact writes, so fault injection covers
	// them, and are staged in a private directory inside the artifact, so
	// the save below adopts them by rename: never a second copy through
	// another filesystem, never a tmpfs holding them in memory. The
	// staging directory goes when the merge returns; after a crash it is
	// unreferenced, and the next merge's sweep removes it.
	stage, err := fsi.MkdirTemp(baseDir, "merge-stage-*")
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	staged := true
	defer func() {
		if staged {
			fsi.RemoveAll(stage)
		}
	}()
	l.SetCountOptions(core.CountOptions{FS: fsys, SpillDir: stage})
	if _, _, err := l.Merge(delta, -1); err != nil {
		return nil, err
	}

	newEpoch := m.Epoch + 1
	nm, err := writePayloads(l, baseDir, newEpoch, nil, fmt.Sprintf("-e%d", newEpoch), fsi)
	if err != nil {
		return nil, err
	}
	if err := commitManifest(nm, baseDir, fsi); err != nil {
		return nil, err
	}

	// Post-commit sweep: the superseded generation's payload files; its
	// run directories wait for the next merge's pre-merge sweep. Failures
	// leave unreferenced garbage, not an inconsistent artifact, so they
	// don't fail the merge — except a scripted kill, which must stop the
	// world here like everywhere else. The manifest is already committed,
	// so even that error leaves a complete merged artifact behind.
	if err := removeStale(baseDir, m, fsi); err != nil {
		return nil, err
	}
	staged = false
	if err := fsi.RemoveAll(stage); errors.Is(err, iofault.ErrKilled) {
		return nil, err
	}
	return nm, nil
}

// MergeDeltaInto folds a saved delta artifact (SaveDelta) into the base
// artifact it is bound to, verifying the binding: the delta's recorded
// base epoch and row watermark must match the on-disk manifest exactly,
// or the merge is rejected with ErrEpochMismatch.
func MergeDeltaInto(baseDir, deltaDir string) (*Manifest, error) {
	return MergeDeltaIntoFS(baseDir, deltaDir, nil)
}

// MergeDeltaIntoFS is MergeDeltaInto with an explicit filesystem seam.
func MergeDeltaIntoFS(baseDir, deltaDir string, fsys iofault.FS) (*Manifest, error) {
	dl, dm, err := OpenFS(deltaDir, fsys)
	if err != nil {
		return nil, err
	}
	defer dl.ReleaseSpill()
	if dm.DeltaOf == nil {
		return nil, manifestErr("artifact at %s is not a delta (no delta binding)", deltaDir)
	}
	return MergeIntoFS(baseDir, dl, &Manifest{Epoch: dm.DeltaOf.BaseEpoch, TotalRows: dm.DeltaOf.BaseRows}, fsys)
}

// removeStale deletes the payload files a superseded manifest references.
// Open reads a file payload whole, so no label reads one afterwards; the
// manifest's run directories, which labels opened at its generation read
// by path, are left for the next merge's sweepUnreferenced. Ordinary
// failures are swallowed — the leftovers are unreferenced garbage a later
// sweep clears — but a scripted kill propagates: nothing runs after a
// crash.
func removeStale(dir string, m *Manifest, fsi iofault.FS) error {
	for _, pm := range m.PCs {
		if pm.File != "" {
			if err := fsi.Remove(filepath.Join(dir, pm.File)); errors.Is(err, iofault.ErrKilled) {
				return err
			}
		}
	}
	return nil
}

// sweepUnreferenced deletes every directory entry the committed manifest
// doesn't name — crash residue from interrupted merges, and the run
// directories of the generation the last merge superseded. The manifest
// itself (and its staging name, which commitManifest recreates) aside, a
// consistent artifact contains only referenced payloads and those run
// directories, which only labels opened before the last merge still
// read, so anything else is safe to drop. Failures to delete are
// swallowed except a scripted kill; a leftover that still collides with
// this merge's payload names surfaces as a write error moments later.
func sweepUnreferenced(dir string, m *Manifest, fsi iofault.FS) error {
	refs := map[string]bool{manifestName: true}
	for _, pm := range m.PCs {
		if pm.File != "" {
			refs[pm.File] = true
		}
		if pm.Dir != "" {
			refs[pm.Dir] = true
		}
	}
	ents, err := fsi.ReadDir(dir)
	if err != nil {
		if errors.Is(err, iofault.ErrKilled) {
			return err
		}
		return nil
	}
	for _, ent := range ents {
		if refs[ent.Name()] {
			continue
		}
		var rmErr error
		if ent.IsDir() {
			rmErr = fsi.RemoveAll(filepath.Join(dir, ent.Name()))
		} else {
			rmErr = fsi.Remove(filepath.Join(dir, ent.Name()))
		}
		if errors.Is(rmErr, iofault.ErrKilled) {
			return rmErr
		}
	}
	return nil
}
