package artifact

// FuzzOpenPayload hardens the payload decoders behind Open, the bytes
// FuzzDecodeManifest never reaches: a saved artifact's u64 and dense
// payloads are replaced by mutated bytes, and the manifest's length,
// entry count and CRC are fixed up so the mutation gets past the
// checksum to the decoder. Open must then fail with a typed error, or
// serve a PC that answers every lookup exactly as the payload's entries
// say, each a positive count, and marginals that sum those entries
// exactly. A sorted layout is looked up by binary search, which is only
// correct on strictly ascending keys, so a reordered payload must fail;
// and counts are stored as int32, so a payload whose counts sum past the
// label's rows must fail before a marginal sums them.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// payloadTemplate is a saved artifact held in memory: its manifest and
// payload bytes, and the domain sizes that define its mixed-radix keys.
type payloadTemplate struct {
	m        *Manifest
	payloads [][]byte // by PC index
	dims     []int    // domain size per attribute
}

// payloadDomains are the template's attribute domains. The full set has
// 8,000 key slots, too sparse for a dense slab over its 200 rows, so the
// PC section saves as a u64 payload; the marginal over the first
// attribute is a 20-slot dense payload.
var payloadDomains = []int{20, 20, 20}

func newPayloadTemplate(f *testing.F) *payloadTemplate {
	names := []string{"a0", "a1", "a2"}
	bld := dataset.NewBuilder("payloadfuzz", names...)
	for a, dim := range payloadDomains {
		for v := 0; v < dim; v++ {
			if _, err := bld.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				f.Fatal(err)
			}
		}
	}
	for r := 0; r < 200; r++ {
		bld.AppendStrings(fmt.Sprintf("v%d", r%20), fmt.Sprintf("v%d", (r*7)%20), fmt.Sprintf("v%d", (r*13/3)%20))
	}
	d, err := bld.Build()
	if err != nil {
		f.Fatal(err)
	}
	l := must(core.BuildLabel(d, lattice.FullSet(3), core.CountOptions{}))
	if _, _, err := l.CountCtx(nil, core.PatternFromRow(d, 0, lattice.NewAttrSet(0))); err != nil {
		f.Fatal(err)
	}
	dir := filepath.Join(f.TempDir(), "a")
	if err := Save(l, dir); err != nil {
		f.Fatal(err)
	}
	_, m, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if len(m.PCs) != 2 || m.PCs[0].Kind != kindU64 || m.PCs[1].Kind != kindDense {
		f.Fatalf("template payloads are %+v, want a u64 PC section and a dense marginal", m.PCs)
	}
	tp := &payloadTemplate{m: m, dims: payloadDomains}
	for _, pm := range m.PCs {
		data, err := os.ReadFile(filepath.Join(dir, pm.File))
		if err != nil {
			f.Fatal(err)
		}
		tp.payloads = append(tp.payloads, data)
	}
	return tp
}

// write lays the template out in dir with payload idx replaced by data,
// its manifest descriptor fixed up to match.
func (tp *payloadTemplate) write(t *testing.T, dir string, idx int, data []byte) {
	t.Helper()
	m := *tp.m
	m.PCs = slices.Clone(tp.m.PCs)
	pm := &m.PCs[idx]
	pm.SizeBytes = int64(len(data))
	pm.Checksum = crc32.Checksum(data, castagnoli)
	if pm.Kind == kindU64 && len(data)%16 == 0 {
		pm.Entries = len(data) / 16
	}
	for i, p := range m.PCs {
		payload := tp.payloads[i]
		if i == idx {
			payload = data
		}
		if err := os.WriteFile(filepath.Join(dir, p.File), payload, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Written without Save's fsyncs, which would dominate an iteration.
	manifest, err := encodeManifest(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
}

// entries decodes a payload the way its format defines it, independently
// of the decoder under test: key → count for a u64 payload (entries in
// file order, a repeated key kept twice), slot → nonzero count for a
// dense one.
func payloadEntries(kind string, data []byte) (keys []uint64, counts []int64) {
	if kind == kindU64 {
		for off := 0; off+16 <= len(data); off += 16 {
			keys = append(keys, binary.LittleEndian.Uint64(data[off:]))
			counts = append(counts, int64(binary.LittleEndian.Uint64(data[off+8:])))
		}
		return keys, counts
	}
	for off := 0; off+4 <= len(data); off += 4 {
		if c := int32(binary.LittleEndian.Uint32(data[off:])); c != 0 {
			keys = append(keys, uint64(off/4))
			counts = append(counts, int64(c))
		}
	}
	return keys, counts
}

// decodeKey spells a mixed-radix key over members as a dense value slice;
// ok is false for a key outside the members' key space.
func (tp *payloadTemplate) decodeKey(key uint64, members []int) (vals []uint16, ok bool) {
	vals = make([]uint16, len(tp.dims))
	for _, a := range members {
		dim := uint64(tp.dims[a])
		vals[a] = uint16(key%dim) + 1
		key /= dim
	}
	return vals, key == 0
}

func FuzzOpenPayload(f *testing.F) {
	tp := newPayloadTemplate(f)
	u64, dense := tp.payloads[0], tp.payloads[1]
	f.Add(uint8(0), u64)
	f.Add(uint8(1), dense)
	// Two entries swapped: no longer ascending.
	swapped := slices.Clone(u64)
	copy(swapped[0:16], u64[16:32])
	copy(swapped[16:32], u64[0:16])
	f.Add(uint8(0), swapped)
	// A repeated key.
	dup := slices.Clone(u64)
	copy(dup[16:24], u64[0:8])
	f.Add(uint8(0), dup)
	// A zero count, and one past int32.
	zero := slices.Clone(u64)
	binary.LittleEndian.PutUint64(zero[8:], 0)
	f.Add(uint8(0), zero)
	wide := slices.Clone(u64)
	binary.LittleEndian.PutUint64(wide[8:], math.MaxInt32+1)
	f.Add(uint8(0), wide)
	// A last key at the end of the key space.
	past := slices.Clone(u64)
	binary.LittleEndian.PutUint64(past[len(past)-16:], 20*20*20)
	f.Add(uint8(0), past)
	// A negative dense slot, every slot zeroed (the manifest still
	// declares its nonzero slots), and a dense slab one slot short.
	neg := slices.Clone(dense)
	binary.LittleEndian.PutUint32(neg, math.MaxUint32)
	f.Add(uint8(1), neg)
	f.Add(uint8(1), make([]byte, len(dense)))
	f.Add(uint8(1), dense[:len(dense)-4])
	f.Add(uint8(0), u64[:len(u64)-16])
	// Two int32-sized counts under keys that share their value of a1,
	// each valid alone: any marginal holding a1 would sum past int32.
	shared := make([]byte, 32)
	binary.LittleEndian.PutUint64(shared[0:], 0)
	binary.LittleEndian.PutUint64(shared[8:], math.MaxInt32)
	binary.LittleEndian.PutUint64(shared[16:], 20*20)
	binary.LittleEndian.PutUint64(shared[24:], math.MaxInt32)
	f.Add(uint8(0), shared)
	// Counts summing to one more than the label's rows, in a u64 payload
	// and in a dense slab.
	over := slices.Clone(u64)
	binary.LittleEndian.PutUint64(over[8:], binary.LittleEndian.Uint64(over[8:])+1)
	f.Add(uint8(0), over)
	overDense := slices.Clone(dense)
	binary.LittleEndian.PutUint32(overDense, binary.LittleEndian.Uint32(overDense)+1)
	f.Add(uint8(1), overDense)

	// The marginals the template persists; every other one is summed
	// from the PC section when queried.
	var persisted []lattice.AttrSet
	for _, pm := range tp.m.PCs[1:] {
		sub, err := lattice.FromNames([]string{"a0", "a1", "a2"}, pm.Attrs...)
		if err != nil {
			f.Fatal(err)
		}
		persisted = append(persisted, sub)
	}

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		idx := int(which % 2)
		dir := t.TempDir()
		tp.write(t, dir, idx, data)
		l, _, err := Open(dir)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrManifest) {
				t.Fatalf("untyped Open error: %v", err)
			}
			if bytes.Equal(data, tp.payloads[idx]) {
				t.Fatalf("the saved payload fails to open: %v", err)
			}
			return
		}
		defer l.ReleaseSpill()
		pc := l.PC()
		if idx == 1 {
			sub := lattice.NewAttrSet(0)
			var ok bool
			if pc, ok, err = l.MarginalPCCtx(nil, sub); err != nil || !ok {
				t.Fatalf("persisted marginal: ok=%v err=%v", ok, err)
			}
		}
		members := pc.Attrs().Members()
		keys, counts := payloadEntries(tp.m.PCs[idx].Kind, data)
		want := make(map[string]int, len(keys))
		var sum int64
		for _, c := range counts {
			sum += c
		}
		if sum > int64(tp.m.TotalRows) {
			t.Fatalf("Open accepted counts summing to %d over %d rows", sum, tp.m.TotalRows)
		}
		for i, key := range keys {
			if i > 0 && key <= keys[i-1] {
				t.Fatalf("Open accepted key %d after %d", key, keys[i-1])
			}
			if counts[i] <= 0 || counts[i] > math.MaxInt32 {
				t.Fatalf("Open accepted count %d for key %d", counts[i], key)
			}
			vals, ok := tp.decodeKey(key, members)
			if !ok {
				t.Fatalf("Open accepted key %d outside the key space", key)
			}
			k := fmt.Sprint(vals)
			if _, dup := want[k]; dup {
				t.Fatalf("Open accepted repeated key %d", key)
			}
			want[k] = int(counts[i])
			if got, err := pc.LookupValsCtx(nil, vals); err != nil || got != int(counts[i]) {
				t.Fatalf("lookup of key %d = (%d, %v), payload says %d", key, got, err, counts[i])
			}
		}
		if pc.Size() != len(want) {
			t.Fatalf("Size = %d, payload holds %d entries", pc.Size(), len(want))
		}
		seen := 0
		noErr(pc.EachCtx(nil, len(tp.dims), func(vals []uint16, c int) bool {
			if w, ok := want[fmt.Sprint(vals)]; !ok || w != c {
				t.Fatalf("EachCtx yields %v = %d, payload says %d (present %v)", vals, c, w, ok)
			}
			seen++
			return true
		}))
		if seen != len(want) {
			t.Fatalf("EachCtx yields %d entries, payload holds %d", seen, len(want))
		}
		if idx != 0 {
			return
		}
		for _, sub := range properSubsets(pc.Attrs()) {
			if slices.Contains(persisted, sub) {
				continue
			}
			subMembers := sub.Members()
			spell := func(vals []uint16) string {
				out := make([]uint16, len(subMembers))
				for j, a := range subMembers {
					out[j] = vals[a]
				}
				return fmt.Sprint(out)
			}
			wantSub := make(map[string]int)
			for i, key := range keys {
				vals, _ := tp.decodeKey(key, members)
				wantSub[spell(vals)] += int(counts[i])
			}
			mpc, ok, err := l.MarginalPCCtx(nil, sub)
			if err != nil || !ok {
				t.Fatalf("marginal %v: ok=%v err=%v", sub, ok, err)
			}
			if mpc.Size() != len(wantSub) {
				t.Fatalf("marginal %v: Size = %d, the payload sums to %d patterns", sub, mpc.Size(), len(wantSub))
			}
			noErr(mpc.EachCtx(nil, len(tp.dims), func(vals []uint16, c int) bool {
				if w := wantSub[spell(vals)]; w != c {
					t.Fatalf("marginal %v yields %v = %d, the payload sums to %d", sub, vals, c, w)
				}
				return true
			}))
		}
	})
}
