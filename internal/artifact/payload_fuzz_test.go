package artifact

// FuzzOpenPayload hardens the payload decoder behind Open, the bytes
// FuzzDecodeManifest never reaches: a saved artifact's sorted payload —
// the PC section, saved from a sorted PC, or a marginal saved from a
// dense one — or one run file of a saved spilled artifact, with one-word
// keys and with two-word keys, is replaced by mutated bytes, and the
// manifest's length, entry count and CRC (the run frames' own checksums
// included) are fixed up so the mutation gets past the checksums to the
// decoder. Open must then fail with a typed error — for a spilled run,
// Open or the run's first read — or serve a PC that answers every lookup
// exactly as the payload's entries say, each a positive count, and
// marginals that sum those entries exactly. A sorted layout is looked up
// by binary search, which is only correct on strictly ascending keys, so a
// reordered payload must fail; a spilled key is looked up in the one run
// its hash routes to, so a key in another run must fail; and counts are
// stored as int32, so a payload whose counts sum past the label's rows
// must fail before a marginal sums them.

import (
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
	"pcbl/internal/spill"
)

// payloadTemplate is a saved artifact held in memory: its manifest and
// payload bytes, and the domain sizes that define its mixed-radix keys.
type payloadTemplate struct {
	m        *Manifest
	payloads [][]byte // by PC index
	dims     []int    // domain size per attribute
}

// payloadDomains are the one-word template's attribute domains. The full
// set has 8,000 key slots, too sparse for a dense slab over its 200 rows,
// so the PC section is a sorted PC; the marginal over the first attribute
// is a 20-slot dense one. Both save as sorted payloads.
var payloadDomains = []int{20, 20, 20}

// wideDomains are the two-word templates' attribute domains: 16^15 fills
// the first word, and the sixteenth attribute opens the second. Small
// domains keep the manifest, which every iteration rewrites and reopens,
// small.
var wideDomains = []int{16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16}

// spellRow is a template dataset's value of attribute a in row r: the
// first few attributes from a fixed table, the rest from a formula.
func spellRow(table []int, r, a int) int {
	if a < len(table) {
		return table[a]
	}
	return r*(a+3)/(a%4+1) + r/(a+1)
}

// checkedSubsets are the marginals a fuzz arm checks: every proper subset
// of a set of up to four attributes, and of a wider one its singletons and
// the sets one attribute short of it.
func checkedSubsets(s lattice.AttrSet) []lattice.AttrSet {
	if s.Size() <= 4 {
		return properSubsets(s)
	}
	var out []lattice.AttrSet
	for _, a := range s.Members() {
		out = append(out, lattice.NewAttrSet(a), s.Remove(a))
	}
	return out
}

// fuzzDataset builds a dataset over the given domains, every value
// interned, whose rows spell pattern values through spell.
func fuzzDataset(f *testing.F, name string, dims []int, rows int, spell func(r, a int) int) *dataset.Dataset {
	names := make([]string, len(dims))
	for a := range names {
		names[a] = fmt.Sprintf("a%d", a)
	}
	bld := dataset.NewBuilder(name, names...)
	for a, dim := range dims {
		for v := 0; v < dim; v++ {
			if _, err := bld.InternValue(a, fmt.Sprintf("v%d", v)); err != nil {
				f.Fatal(err)
			}
		}
	}
	row := make([]string, len(dims))
	for r := 0; r < rows; r++ {
		for a, dim := range dims {
			row[a] = fmt.Sprintf("v%d", spell(r, a)%dim)
		}
		bld.AppendStrings(row...)
	}
	d, err := bld.Build()
	if err != nil {
		f.Fatal(err)
	}
	return d
}

// keySpace is the reference key packing: the radix of each word when the
// members' domains are packed in order, a member opening the next word
// once the current one would pass MaxInt64.
func keySpace(dims []int, members []int) []uint64 {
	radix := []uint64{1}
	for _, a := range members {
		dim := uint64(dims[a])
		if w := len(radix) - 1; radix[w] > math.MaxInt64/dim {
			radix = append(radix, dim)
		} else {
			radix[w] *= dim
		}
	}
	return radix
}

// newPayloadTemplate saves a label over dims with its marginal over the
// first attribute. By the tier rules (internal/core's
// TestPortableTiersMatchBuild) the marginal is a dense PC in memory and,
// over the dims the fuzzer uses, the PC section a sorted one.
func newPayloadTemplate(f *testing.F, dims []int) *payloadTemplate {
	d := fuzzDataset(f, "payloadfuzz", dims, 200, func(r, a int) int {
		return spellRow([]int{r, r * 7, r * 13 / 3}, r, a)
	})
	l := must(core.BuildLabel(d, lattice.FullSet(len(dims)), core.CountOptions{}))
	if _, _, err := l.MarginalPCCtx(nil, lattice.NewAttrSet(0)); err != nil {
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
	if len(m.PCs) != 2 || m.PCs[0].Kind != kindSorted || m.PCs[1].Kind != kindSorted {
		f.Fatalf("template payloads are %+v, want two sorted payloads", m.PCs)
	}
	tp := &payloadTemplate{m: m, dims: dims}
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
// whose frame checksums it fixes up, and its manifest descriptor set to
// match: length, CRC32C and the entries the frame headers declare. It
// returns the fixed-up payload.
func (tp *payloadTemplate) write(t *testing.T, dir string, idx int, data []byte) []byte {
	t.Helper()
	data = fixRunCRCs(slices.Clone(data))
	m := *tp.m
	m.PCs = slices.Clone(tp.m.PCs)
	pm := &m.PCs[idx]
	pm.SizeBytes = int64(len(data))
	pm.Checksum = crc32.Checksum(data, castagnoli)
	pm.Entries = runHeaderEntries(data)
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
	return data
}

// members is the attribute members of payload idx's PC.
func (tp *payloadTemplate) members(idx int) []int {
	if idx == 0 {
		return lattice.FullSet(len(tp.dims)).Members()
	}
	return []int{0}
}

// decodeKey spells a key over members, packed as keySpace packs them, as
// a dense value slice; ok is false for a key outside the members' key
// space.
func (tp *payloadTemplate) decodeKey(key []uint64, members []int) (vals []uint16, ok bool) {
	radix := keySpace(tp.dims, members)
	if len(key) != len(radix) {
		return nil, false
	}
	vals = make([]uint16, len(tp.dims))
	rem := slices.Clone(key)
	w, space := 0, uint64(1)
	for _, a := range members {
		dim := uint64(tp.dims[a])
		if space > math.MaxInt64/dim {
			w, space = w+1, 1
		}
		space *= dim
		vals[a] = uint16(rem[w]%dim) + 1
		rem[w] /= dim
	}
	return vals, !slices.ContainsFunc(rem, func(r uint64) bool { return r != 0 })
}

// seeds returns mutations of payload idx that break one rule each — two
// entries swapped, a repeated key, a zero count, a last key whose last
// word reaches its radix, a truncated varint, a header overstating its
// entries, counts summing past the label's rows — after the saved payload
// itself; for the one-word PC section also two int32-sized counts under
// keys that share their value of a1, each valid alone, that any marginal
// holding a1 would sum past int32.
func (tp *payloadTemplate) seeds(f *testing.F, idx int) [][]byte {
	saved := tp.payloads[idx]
	radix := keySpace(tp.dims, tp.members(idx))
	entries, _, err := decodeRunRef(saved, len(radix))
	if err != nil || len(entries) < 2 {
		f.Fatalf("saved payload %d: %d entries, %v", idx, len(entries), err)
	}
	mutate := func(edit func(e []runEntry)) []byte {
		e := make([]runEntry, len(entries))
		for i, en := range entries {
			e[i] = runEntry{key: slices.Clone(en.key), count: en.count}
		}
		edit(e)
		return encodeRunRef(e)
	}
	truncated := slices.Clone(saved)
	truncated[len(truncated)-1] = 0x80
	overstated := slices.Clone(saved)
	binary.LittleEndian.PutUint32(overstated[4:], binary.LittleEndian.Uint32(overstated[4:])+1)
	out := [][]byte{
		saved,
		mutate(func(e []runEntry) { e[0], e[1] = e[1], e[0] }),
		mutate(func(e []runEntry) { e[1].key = slices.Clone(e[0].key) }),
		mutate(func(e []runEntry) { e[0].count = 0 }),
		mutate(func(e []runEntry) { e[len(e)-1].key[len(radix)-1] = radix[len(radix)-1] }),
		truncated,
		overstated,
		mutate(func(e []runEntry) { e[0].count += uint64(tp.m.TotalRows) }),
	}
	if idx == 0 && len(radix) == 1 {
		out = append(out, encodeRunRef([]runEntry{
			{key: []uint64{0}, count: math.MaxInt32},
			{key: []uint64{20 * 20}, count: math.MaxInt32},
		}))
	}
	return out
}

// spillTemplate is a saved spilled artifact held in memory: a label whose
// PC section is a spilled payload, its manifest and run files, and
// the run the fuzz arm replaces.
type spillTemplate struct {
	m         *Manifest
	dims      []int
	radix     []uint64 // the PC section's key space, a radix a word
	runs      [][]byte
	victim    int
	others    []runEntry // the entries of every other run
	otherRows int64
	route     *spill.Runs // the saved runs, for their routing
}

// spillDomains are the one-word spill template's attribute domains:
// 20,736 key slots over 600 rows is too sparse for a dense slab, and an
// 8 KiB budget spills the full set into five runs that stay on disk.
var spillDomains = []int{12, 12, 12, 12}

// newSpillTemplate saves a label over dims whose PC section spills under
// an 8 KiB budget.
func newSpillTemplate(f *testing.F, dims []int) *spillTemplate {
	d := fuzzDataset(f, "spillfuzz", dims, 600, func(r, a int) int {
		return spellRow([]int{r, r * 7 / 5, r * 13 / 3, r * r % 11}, r, a)
	})
	full := lattice.FullSet(len(dims))
	l := must(core.BuildLabel(d, full, core.CountOptions{Workers: 1, MemBudget: 8 << 10, SpillDir: f.TempDir()}))
	dir := filepath.Join(f.TempDir(), "a")
	if err := Save(l, dir); err != nil {
		f.Fatal(err)
	}
	l.ReleaseSpill()
	_, m, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if len(m.PCs) != 1 || m.PCs[0].Kind != kindSpilled || len(m.PCs[0].RunSizes) < 2 {
		f.Fatalf("spill template payloads are %+v, want one spilled PC section over several runs", m.PCs)
	}
	st := &spillTemplate{m: m, dims: dims, radix: keySpace(dims, full.Members()), victim: -1}
	if wordsOf(m.PCs[0]) != len(st.radix) {
		f.Fatalf("spill template keys %d words, want %d", wordsOf(m.PCs[0]), len(st.radix))
	}
	runDir := filepath.Join(dir, m.PCs[0].Dir)
	if st.route, err = spill.Open(runDir, len(st.radix), len(m.PCs[0].RunSizes), nil); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(st.route.Cleanup)
	for run, n := range m.PCs[0].RunSizes {
		data, err := os.ReadFile(filepath.Join(runDir, fmt.Sprintf("run-%04d", run)))
		if err != nil {
			f.Fatal(err)
		}
		st.runs = append(st.runs, data)
		if st.victim < 0 && n >= 2 {
			st.victim = run
			continue
		}
		entries, rows, err := decodeRunRef(data, len(st.radix))
		if err != nil {
			f.Fatalf("saved run %d: %v", run, err)
		}
		st.others = append(st.others, entries...)
		st.otherRows += rows
	}
	if st.victim < 0 {
		f.Fatal("no run of the spill template holds two entries")
	}
	return st
}

// write lays the template out in dir with the victim run replaced by data,
// whose frame checksums it fixes up, and the manifest's run sizes set to
// what data's frame headers declare. It returns the fixed-up run.
func (st *spillTemplate) write(t *testing.T, dir string, data []byte) []byte {
	t.Helper()
	data = fixRunCRCs(slices.Clone(data))
	m := *st.m
	m.PCs = slices.Clone(st.m.PCs)
	pm := &m.PCs[0]
	pm.RunSizes = slices.Clone(pm.RunSizes)
	pm.RunSizes[st.victim] = runHeaderEntries(data)
	pm.Size = 0
	for _, n := range pm.RunSizes {
		pm.Size += n
	}
	runDir := filepath.Join(dir, pm.Dir)
	if err := os.Mkdir(runDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for run, run0 := range st.runs {
		if run == st.victim {
			run0 = data
		}
		if err := os.WriteFile(filepath.Join(runDir, fmt.Sprintf("run-%04d", run)), run0, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	manifest, err := encodeManifest(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// seeds returns mutations of the victim run that break one rule each:
// two entries swapped, a repeated key, a zero count, a truncated varint,
// a header overstating its entries, a key of another run and a key past
// the key space; and the saved run itself.
func (st *spillTemplate) seeds(f *testing.F) [][]byte {
	saved := st.runs[st.victim]
	entries, _, err := decodeRunRef(saved, len(st.radix))
	if err != nil {
		f.Fatal(err)
	}
	mutate := func(edit func(e []runEntry)) []byte {
		e := make([]runEntry, len(entries))
		for i, en := range entries {
			e[i] = runEntry{key: slices.Clone(en.key), count: en.count}
		}
		edit(e)
		return encodeRunRef(e)
	}
	truncated := slices.Clone(saved)
	truncated[len(truncated)-1] = 0x80
	overstated := slices.Clone(saved)
	binary.LittleEndian.PutUint32(overstated[4:], binary.LittleEndian.Uint32(overstated[4:])+1)
	misrouted := mutate(func(e []runEntry) {
		// A key, its last word moved up to where it routes to another run
		// while it still sorts before the next key.
		for i := 0; i+1 < len(e); i++ {
			k := slices.Clone(e[i].key)
			for k[len(k)-1]++; slices.Compare(k, e[i+1].key) < 0; k[len(k)-1]++ {
				if st.route.RunOf(k) != st.victim {
					e[i].key = k
					return
				}
			}
		}
		f.Fatal("no key between two of the victim's routes elsewhere")
	})
	past := mutate(func(e []runEntry) {
		// The last key, moved past the key space into its own run.
		k := make([]uint64, len(st.radix))
		for k[0] = st.radix[0]; st.route.RunOf(k) != st.victim; k[len(k)-1]++ {
		}
		e[len(e)-1].key = k
	})
	return [][]byte{
		saved,
		mutate(func(e []runEntry) { e[0], e[1] = e[1], e[0] }),
		mutate(func(e []runEntry) { e[1].key = slices.Clone(e[0].key) }),
		mutate(func(e []runEntry) { e[0].count = 0 }),
		truncated,
		overstated,
		misrouted,
		past,
	}
}

// check is the spilled arm of the fuzz target: the run data replaces the
// victim run, and the label must fail typed or answer exactly as the
// reference decoding of every run says.
func (st *spillTemplate) check(t *testing.T, data []byte) {
	dir := t.TempDir()
	data = st.write(t, dir, data)
	entries, rows, bad := decodeRunRef(data, len(st.radix))
	tp := &payloadTemplate{dims: st.dims}
	members := lattice.FullSet(len(st.dims)).Members()
	for _, e := range entries {
		if bad != nil {
			break
		}
		if _, ok := tp.decodeKey(e.key, members); !ok {
			bad = fmt.Errorf("key %v outside the key space", e.key)
		} else if r := st.route.RunOf(e.key); r != st.victim {
			bad = fmt.Errorf("key %v routes to run %d", e.key, r)
		}
	}
	if bad == nil && st.otherRows+rows > int64(st.m.TotalRows) {
		bad = fmt.Errorf("runs count %d rows of %d", st.otherRows+rows, st.m.TotalRows)
	}
	l, _, err := Open(dir)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrManifest) {
			t.Fatalf("untyped Open error: %v", err)
		}
		if bad == nil {
			t.Fatalf("Open rejected runs the format accepts: %v", err)
		}
		return
	}
	defer l.ReleaseSpill()
	pc := l.PC()
	n := len(st.dims)
	got := make(map[string]int)
	err = pc.EachCtx(nil, n, func(vals []uint16, c int) bool {
		got[fmt.Sprint(vals)] = c
		return true
	})
	if bad != nil {
		if err == nil {
			t.Fatalf("a run breaking the format (%v) loaded", bad)
		}
		if !errors.Is(err, spill.ErrCorrupt) {
			t.Fatalf("untyped run-load error: %v", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("a run the format accepts fails to load: %v", err)
	}
	all := append(slices.Clone(st.others), entries...)
	rd := l.Dataset()
	for _, e := range all {
		vals, _ := tp.decodeKey(e.key, members)
		if c := got[fmt.Sprint(vals)]; c != int(e.count) {
			t.Fatalf("EachCtx yields %v = %d, the runs say %d", vals, c, e.count)
		}
		assign := make(map[string]string, n)
		for a, id := range vals {
			assign[rd.Attr(a).Name()] = rd.Attr(a).Value(id)
		}
		p, err := core.NewPattern(rd, assign)
		if err != nil {
			t.Fatal(err)
		}
		if c, _, err := l.CountCtx(nil, p); err != nil || c != int(e.count) {
			t.Fatalf("CountCtx of %v = (%d, %v), the runs say %d", vals, c, err, e.count)
		}
	}
	if len(got) != len(all) || pc.Size() != len(all) {
		t.Fatalf("EachCtx yields %d entries and Size is %d, the runs hold %d", len(got), pc.Size(), len(all))
	}
	for _, sub := range checkedSubsets(pc.Attrs()) {
		subMembers := sub.Members()
		spell := func(vals []uint16) string {
			out := make([]uint16, len(subMembers))
			for j, a := range subMembers {
				out[j] = vals[a]
			}
			return fmt.Sprint(out)
		}
		wantSub := make(map[string]int)
		for _, e := range all {
			vals, _ := tp.decodeKey(e.key, members)
			wantSub[spell(vals)] += int(e.count)
		}
		mpc, ok, err := l.MarginalPCCtx(nil, sub)
		if err != nil || !ok {
			t.Fatalf("marginal %v: ok=%v err=%v", sub, ok, err)
		}
		if mpc.Size() != len(wantSub) {
			t.Fatalf("marginal %v: Size = %d, the runs sum to %d patterns", sub, mpc.Size(), len(wantSub))
		}
		noErr(mpc.EachCtx(nil, n, func(vals []uint16, c int) bool {
			if w := wantSub[spell(vals)]; w != c {
				t.Fatalf("marginal %v yields %v = %d, the runs sum to %d", sub, vals, c, w)
			}
			return true
		}))
	}
}

// check is the arm of the fuzz target for payload idx of the template:
// data replaces it, and Open must fail typed exactly when the reference
// decoding of the payload finds a broken rule — or a key outside the key
// space, or counts past the label's rows — and otherwise serve a label
// that answers exactly as the payload says.
func (tp *payloadTemplate) check(t *testing.T, idx int, data []byte) {
	dir := t.TempDir()
	data = tp.write(t, dir, idx, data)
	members := tp.members(idx)
	radix := keySpace(tp.dims, members)
	entries, rows, bad := decodeRunRef(data, len(radix))
	for _, e := range entries {
		if bad != nil {
			break
		}
		if _, ok := tp.decodeKey(e.key, members); !ok {
			bad = fmt.Errorf("key %v outside the key space", e.key)
		}
	}
	if bad == nil && rows > int64(tp.m.TotalRows) {
		bad = fmt.Errorf("counts sum to %d over %d rows", rows, tp.m.TotalRows)
	}
	l, _, err := Open(dir)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrManifest) {
			t.Fatalf("untyped Open error: %v", err)
		}
		if bad == nil {
			t.Fatalf("Open rejected a payload the format accepts: %v", err)
		}
		return
	}
	defer l.ReleaseSpill()
	if bad != nil {
		t.Fatalf("Open accepted a payload breaking the format: %v", bad)
	}
	pc := l.PC()
	if idx == 1 {
		sub := lattice.NewAttrSet(0)
		var ok bool
		if pc, ok, err = l.MarginalPCCtx(nil, sub); err != nil || !ok {
			t.Fatalf("persisted marginal: ok=%v err=%v", ok, err)
		}
	}
	want := make(map[string]int, len(entries))
	for _, e := range entries {
		vals, _ := tp.decodeKey(e.key, members)
		want[fmt.Sprint(vals)] = int(e.count)
		if got, err := pc.LookupValsCtx(nil, vals); err != nil || got != int(e.count) {
			t.Fatalf("lookup of key %v = (%d, %v), payload says %d", e.key, got, err, e.count)
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
	// The marginals the template persists are checked above; every other
	// one is summed from the PC section when queried.
	names := l.Dataset().AttrNames()
	for _, sub := range checkedSubsets(pc.Attrs()) {
		if slices.ContainsFunc(tp.m.PCs[1:], func(pm PCMeta) bool { return slices.Equal(pm.Attrs, attrNames(l.Dataset(), sub)) }) {
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
		for _, e := range entries {
			vals, _ := tp.decodeKey(e.key, members)
			wantSub[spell(vals)] += int(e.count)
		}
		mpc, ok, err := l.MarginalPCCtx(nil, sub)
		if err != nil || !ok {
			t.Fatalf("marginal %v: ok=%v err=%v", sub, ok, err)
		}
		if mpc.Size() != len(wantSub) {
			t.Fatalf("marginal %v: Size = %d, the payload sums to %d patterns", sub.Format(names), mpc.Size(), len(wantSub))
		}
		noErr(mpc.EachCtx(nil, len(tp.dims), func(vals []uint16, c int) bool {
			if w := wantSub[spell(vals)]; w != c {
				t.Fatalf("marginal %v yields %v = %d, the payload sums to %d", sub, vals, c, w)
			}
			return true
		}))
	}
}

func FuzzOpenPayload(f *testing.F) {
	// One-word keys: the sorted PC section (arm 0), its marginal saved
	// from a dense PC (arm 1) and a spilled run (arm 2).
	tp := newPayloadTemplate(f, payloadDomains)
	for _, idx := range []int{0, 1} {
		for _, seed := range tp.seeds(f, idx) {
			f.Add(uint8(idx), seed)
		}
	}
	st := newSpillTemplate(f, spillDomains)
	for _, run := range st.seeds(f) {
		f.Add(uint8(2), run)
	}
	// Two-word keys: the sorted PC section (arm 3) and a spilled run (arm
	// 4), through the same mutations.
	wtp := newPayloadTemplate(f, wideDomains)
	if w := wordsOf(wtp.m.PCs[0]); w != 2 {
		f.Fatalf("wide template keys %d words, want 2", w)
	}
	for _, seed := range wtp.seeds(f, 0) {
		f.Add(uint8(3), seed)
	}
	wst := newSpillTemplate(f, wideDomains)
	for _, run := range wst.seeds(f) {
		f.Add(uint8(4), run)
	}

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		switch arm := which % 5; arm {
		case 0, 1:
			tp.check(t, int(arm), data)
		case 2:
			st.check(t, data)
		case 3:
			wtp.check(t, 0, data)
		default:
			wst.check(t, data)
		}
	})
}
