package main

// End-to-end test of the incremental update flow: save an artifact, grow
// the CSV, run `pcbl update`, and check the artifact advanced an epoch and
// answers like a rebuild over the grown file — then drive a serving daemon
// across the update with SIGHUP.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"pcbl"
)

// growCSV appends rows (same generator as writeCSV, continuing at offset)
// to the CSV at path.
func growCSV(t *testing.T, path string, from, to int) {
	t.Helper()
	var sb strings.Builder
	for r := from; r < to; r++ {
		// Same row recipe as writeCSV so counts stay non-uniform.
		sb.WriteString(rowFor(r))
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(sb.String()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func rowFor(r int) string {
	return "c" + itoa(r%3) + ",s" + itoa((r/2)%4) + ",z" + itoa((r/5)%2) + "\n"
}

func itoa(n int) string { return string(rune('0' + n)) }

func countAt(t *testing.T, dir string, assign map[string]string) int {
	t.Helper()
	l, _, err := pcbl.OpenLabelArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.ReleaseSpill()
	p, err := pcbl.NewPattern(l.Dataset(), assign)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := must2(l.CountCtx(nil, p))
	return c
}

func TestUpdateCommand(t *testing.T) {
	path := writeCSV(t, 120)
	dir := filepath.Join(t.TempDir(), "artifact")
	if err := runSave([]string{"-in", path, "-bins", "0", "-attrs", "color,shape", "-artifact", dir}); err != nil {
		t.Fatal(err)
	}
	probe := map[string]string{"color": "c1", "shape": "s2"}
	before := countAt(t, dir, probe)

	// No new rows: the update is a no-op, the artifact stays at epoch 1.
	if err := runUpdate([]string{"-in", path, "-artifact", dir}); err != nil {
		t.Fatal(err)
	}
	_, m, err := pcbl.OpenLabelArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 || m.TotalRows != 120 {
		t.Fatalf("no-op update moved the artifact: epoch %d rows %d", m.Epoch, m.TotalRows)
	}

	growCSV(t, path, 120, 200)
	if err := runUpdate([]string{"-in", path, "-artifact", dir}); err != nil {
		t.Fatal(err)
	}
	_, m, err = pcbl.OpenLabelArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 2 || m.TotalRows != 200 {
		t.Fatalf("updated artifact: epoch %d rows %d, want 2, 200", m.Epoch, m.TotalRows)
	}

	// Ground truth from re-reading the grown CSV.
	d, err := pcbl.ReadCSVFile(path, pcbl.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pcbl.NewPattern(d, probe)
	if err != nil {
		t.Fatal(err)
	}
	want := pcbl.Count(d, p)
	got := countAt(t, dir, probe)
	if got != want || got == before {
		t.Fatalf("updated count = %d, want %d (was %d before update)", got, want, before)
	}

	// An explicit stale watermark is refused by the merge's row check.
	growCSV(t, path, 200, 210)
	if err := runUpdate([]string{"-in", path, "-artifact", dir, "-since", "120"}); err == nil {
		t.Fatal("update with a stale -since watermark succeeded; rows would double-count")
	}

	// The delta-artifact route: write the delta next to the base, merge it.
	deltaDir := filepath.Join(t.TempDir(), "delta")
	if err := runUpdate([]string{"-in", path, "-artifact", dir, "-delta-out", deltaDir}); err != nil {
		t.Fatal(err)
	}
	if _, dm, err := pcbl.OpenLabelArtifact(deltaDir); err != nil || dm.DeltaOf == nil {
		t.Fatalf("delta artifact: manifest %+v, err %v", dm, err)
	}
	if _, err := pcbl.MergeDeltaArtifact(dir, deltaDir); err != nil {
		t.Fatal(err)
	}
	if _, m, err = pcbl.OpenLabelArtifact(dir); err != nil || m.Epoch != 3 || m.TotalRows != 210 {
		t.Fatalf("after delta merge: epoch %d rows %d, err %v", m.Epoch, m.TotalRows, err)
	}
}

func TestServeReloadsOnSIGHUP(t *testing.T) {
	path := writeCSV(t, 120)
	dir := filepath.Join(t.TempDir(), "artifact")
	if err := runSave([]string{"-in", path, "-bins", "0", "-attrs", "color,shape", "-artifact", dir}); err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	serveReady = func(addr string) { ready <- addr }
	defer func() { serveReady = nil }()
	served := make(chan error, 1)
	go func() { served <- runServe([]string{"-artifact", dir, "-addr", "127.0.0.1:0"}) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-served:
		t.Fatalf("serve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not start listening")
	}

	getCount := func() int {
		resp, err := http.Get("http://" + addr + "/v1/count?q=color%3Dc1%2Cshape%3Ds2")
		if err != nil {
			t.Fatal(err)
		}
		var cr struct {
			Count int `json:"count"`
		}
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return cr.Count
	}
	getEpoch := func() int64 {
		resp, err := http.Get("http://" + addr + "/v1/label")
		if err != nil {
			t.Fatal(err)
		}
		var li struct {
			Epoch int64 `json:"epoch"`
		}
		err = json.NewDecoder(resp.Body).Decode(&li)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return li.Epoch
	}

	before := getCount()
	if got := getEpoch(); got != 1 {
		t.Fatalf("serving epoch = %d, want 1", got)
	}

	// Grow + update while the daemon serves the old generation.
	growCSV(t, path, 120, 200)
	if err := runUpdate([]string{"-in", path, "-artifact", dir}); err != nil {
		t.Fatal(err)
	}
	if got := getCount(); got != before {
		t.Fatalf("daemon count changed without a reload: %d", got)
	}

	// SIGHUP swaps in the merged artifact.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for getEpoch() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("daemon did not reload on SIGHUP")
		}
		time.Sleep(10 * time.Millisecond)
	}
	d, err := pcbl.ReadCSVFile(path, pcbl.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pcbl.NewPattern(d, map[string]string{"color": "c1", "shape": "s2"})
	if err != nil {
		t.Fatal(err)
	}
	if want := pcbl.Count(d, p); getCount() != want {
		t.Fatalf("post-reload count = %d, want %d", getCount(), want)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down on SIGINT")
	}
}
