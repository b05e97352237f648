package dataset

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func build(t *testing.T, b *Builder) *Dataset {
	t.Helper()
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sample(t *testing.T) *Dataset {
	b := NewBuilder("sample", "color", "size")
	b.AppendStrings("red", "S")
	b.AppendStrings("blue", "M")
	b.AppendStrings("red", "L")
	b.AppendStrings("green", "")
	b.AppendStrings("red", "M")
	return build(t, b)
}

func TestBuilderBasics(t *testing.T) {
	d := sample(t)
	if d.NumRows() != 5 || d.NumAttrs() != 2 {
		t.Fatalf("shape = (%d, %d)", d.NumRows(), d.NumAttrs())
	}
	if d.Name() != "sample" {
		t.Errorf("name = %q", d.Name())
	}
	if got := d.Attr(0).DomainSize(); got != 3 {
		t.Errorf("color domain = %d, want 3", got)
	}
	if got := d.Value(3, 1); got != "" {
		t.Errorf("null renders as %q", got)
	}
	if got := d.Value(0, 0); got != "red" {
		t.Errorf("value = %q", got)
	}
	if id, ok := d.Attr(0).ID("red"); !ok || d.Attr(0).Value(id) != "red" {
		t.Error("id round trip failed")
	}
	if _, ok := d.Attr(0).ID("magenta"); ok {
		t.Error("unknown value resolved")
	}
	row := d.Row(1)
	if d.Attr(0).Value(row[0]) != "blue" || d.Attr(1).Value(row[1]) != "M" {
		t.Errorf("row = %v", row)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("dup", "x", "x").Build(); err == nil {
		t.Error("duplicate attribute accepted")
	}
	b := NewBuilder("short", "x", "y")
	b.AppendStrings("only-one")
	if _, err := b.Build(); err == nil {
		t.Error("short row accepted")
	}
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Error("zero attributes accepted")
	}
	b2 := NewBuilder("ids", "x")
	if _, err := b2.InternValue(0, "a"); err != nil {
		t.Fatal(err)
	}
	b2.AppendIDs(9) // out of domain
	if _, err := b2.Build(); err == nil {
		t.Error("out-of-domain id accepted")
	}
}

func TestValueCountsAndFractions(t *testing.T) {
	d := sample(t)
	counts := d.ValueCounts(0)
	if counts[0] != 3 || counts[1] != 1 || counts[2] != 1 {
		t.Errorf("color counts = %v", counts)
	}
	// size has a NULL: denominator is 4.
	if got := d.NonNullCount(1); got != 4 {
		t.Errorf("non-null = %d, want 4", got)
	}
	_, fracs := d.VCTable()
	fr := fracs[1]
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum = %v", sum)
	}
	if fr[0] != 0.25 || fr[1] != 0.5 || fr[2] != 0.25 { // S, M, L over 4 non-null
		t.Errorf("size fractions = %v, want [0.25 0.5 0.25]", fr)
	}
	if got := d.VCSize(); got != 3+3 {
		t.Errorf("VCSize = %d, want 6", got)
	}
}

// checkVCTable asserts d's VC table equals a fresh count of d's own rows.
func checkVCTable(t *testing.T, what string, d *Dataset) {
	t.Helper()
	counts, fracs := d.VCTable()
	if len(counts) != d.NumAttrs() || len(fracs) != d.NumAttrs() {
		t.Fatalf("%s: table has %d/%d attributes, want %d", what, len(counts), len(fracs), d.NumAttrs())
	}
	for a := 0; a < d.NumAttrs(); a++ {
		want := d.ValueCounts(a)
		wantFr := FractionsOf(want)
		for i := range want {
			if counts[a][i] != want[i] || fracs[a][i] != wantFr[i] {
				t.Fatalf("%s: attribute %d table (%v, %v), want (%v, %v)", what, a, counts[a], fracs[a], want, wantFr)
			}
		}
	}
}

// TestVCTable pins the table's contract: it counts the dataset's own rows,
// every call returns the same slices, and the datasets Head, Slice and
// Project return get tables of their own even when the source's table is
// already filled.
func TestVCTable(t *testing.T) {
	d := sample(t)
	checkVCTable(t, "sample", d)
	c1, f1 := d.VCTable()
	c2, f2 := d.VCTable()
	if &c1[0][0] != &c2[0][0] || &f1[1][0] != &f2[1][0] {
		t.Error("VCTable recounted on its second call")
	}
	if c1[0][0] != 3 {
		t.Fatalf("red count = %d, want 3", c1[0][0])
	}

	head := d.Head(2)
	checkVCTable(t, "Head(2)", head)
	if hc, _ := head.VCTable(); hc[0][0] != 1 {
		t.Errorf("Head(2) red count = %d, want 1", hc[0][0])
	}
	nullOnly, err := d.Slice(3, 4) // size is NULL in row 3
	if err != nil {
		t.Fatal(err)
	}
	checkVCTable(t, "Slice(3,4)", nullOnly)
	if _, sf := nullOnly.VCTable(); sf[1][0] != 0 || sf[1][1] != 0 || sf[1][2] != 0 {
		t.Errorf("all-NULL attribute fractions = %v, want zeros", sf[1])
	}
	proj, err := d.Project([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	checkVCTable(t, "Project([1])", proj)
	if pc, _ := proj.VCTable(); pc[0][1] != 2 {
		t.Errorf("projected M count = %d, want 2", pc[0][1])
	}
	// The derived tables left the source's untouched.
	if c, _ := d.VCTable(); &c[0][0] != &c1[0][0] || c[0][0] != 3 {
		t.Error("source table changed after derived datasets were counted")
	}
}

// TestVCTableConcurrentFirstUse fills a fresh dataset's table from eight
// goroutines at once; run with -race.
func TestVCTableConcurrentFirstUse(t *testing.T) {
	b := NewBuilder("wide", "a", "b", "c")
	for r := 0; r < 3000; r++ {
		b.AppendStrings(string(rune('A'+r%7)), string(rune('A'+r%3)), string(rune('A'+r%11)))
	}
	d := build(t, b)
	var wg sync.WaitGroup
	tables := make([][][]int, 8)
	for g := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[g], _ = d.VCTable()
		}()
	}
	wg.Wait()
	checkVCTable(t, "concurrent", d)
	for g, c := range tables {
		if &c[0][0] != &tables[0][0][0] {
			t.Errorf("goroutine %d got a different table", g)
		}
	}
}

func TestProjectAndPrefix(t *testing.T) {
	d := sample(t)
	p, err := d.ProjectNames("size")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumAttrs() != 1 || p.NumRows() != 5 {
		t.Fatalf("projection shape (%d, %d)", p.NumAttrs(), p.NumRows())
	}
	if p.Value(1, 0) != "M" {
		t.Errorf("projected value = %q", p.Value(1, 0))
	}
	if _, err := d.ProjectNames("nope"); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := d.Project([]int{0, 0}); err == nil {
		t.Error("repeated index accepted")
	}
	pre, err := d.Prefix(1)
	if err != nil {
		t.Fatal(err)
	}
	if pre.NumAttrs() != 1 || pre.Attr(0).Name() != "color" {
		t.Error("prefix wrong")
	}
	if _, err := d.Prefix(3); err == nil {
		t.Error("oversized prefix accepted")
	}
}

func TestHead(t *testing.T) {
	d := sample(t)
	h := d.Head(2)
	if h.NumRows() != 2 {
		t.Errorf("head rows = %d", h.NumRows())
	}
	if d.Head(99).NumRows() != 5 {
		t.Error("head beyond size should clamp")
	}
	if d.Head(-1).NumRows() != 0 {
		t.Error("negative head should clamp to 0")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	// A one-column row whose value is NULL must not become a blank line,
	// which CSV readers skip.
	oneCol := build(t, NewBuilder("one", "c").AppendStrings("x").AppendStrings("").AppendStrings("y"))
	for _, d := range []*Dataset{sample(t), oneCol} {
		var sb strings.Builder
		if err := WriteCSV(&sb, d); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(strings.NewReader(sb.String()), CSVOptions{Name: d.Name()})
		if err != nil {
			t.Fatal(err)
		}
		if back.NumRows() != d.NumRows() || back.NumAttrs() != d.NumAttrs() {
			t.Fatalf("%s: shape mismatch (%d,%d)", d.Name(), back.NumRows(), back.NumAttrs())
		}
		for r := 0; r < d.NumRows(); r++ {
			for a := 0; a < d.NumAttrs(); a++ {
				if back.Value(r, a) != d.Value(r, a) {
					t.Errorf("%s (%d,%d): %q != %q", d.Name(), r, a, back.Value(r, a), d.Value(r, a))
				}
			}
		}
	}
}

func TestCSVRejectsDuplicateHeader(t *testing.T) {
	// Names are trimmed before the duplicate check, so "a, a" repeats too.
	for _, in := range []string{"a,a\nx,y\n", "a, a\nx,y\n"} {
		_, err := ReadCSV(strings.NewReader(in), CSVOptions{})
		if err == nil || !strings.Contains(err.Error(), `duplicate attribute name "a"`) {
			t.Errorf("ReadCSV(%q) = %v, want the duplicate name error", in, err)
		}
	}
}

func TestCSVNullTokens(t *testing.T) {
	in := "a,b\nx,NULL\nNA,y\n"
	d, err := ReadCSV(strings.NewReader(in), CSVOptions{NullTokens: []string{"NULL", "NA"}})
	if err != nil {
		t.Fatal(err)
	}
	if d.ID(0, 1) != Null || d.ID(1, 0) != Null {
		t.Error("null tokens not recognized")
	}
	if d.ID(0, 0) == Null || d.ID(1, 1) == Null {
		t.Error("real values nulled")
	}
}

func TestCSVMaxRows(t *testing.T) {
	in := "a\n1\n2\n3\n"
	d, err := ReadCSV(strings.NewReader(in), CSVOptions{MaxRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", d.NumRows())
	}
}

// TestCSVRoundTripProperty (property): any table of small string values
// survives a write/read cycle.
func TestCSVRoundTripProperty(t *testing.T) {
	prop := func(cells [][2]uint8) bool {
		b := NewBuilder("prop", "c0", "c1")
		for _, row := range cells {
			v0 := ""
			if row[0] > 50 {
				v0 = string(rune('a' + row[0]%26))
			}
			v1 := string(rune('A' + row[1]%26))
			b.AppendStrings(v0, v1)
		}
		d, err := b.Build()
		if err != nil {
			return false
		}
		var sb strings.Builder
		if err := WriteCSV(&sb, d); err != nil {
			return false
		}
		back, err := ReadCSV(strings.NewReader(sb.String()), CSVOptions{})
		if err != nil {
			return false
		}
		if back.NumRows() != d.NumRows() {
			return false
		}
		for r := 0; r < d.NumRows(); r++ {
			for a := 0; a < 2; a++ {
				if back.Value(r, a) != d.Value(r, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFilterAttrs(t *testing.T) {
	b := NewBuilder("f", "constant", "good", "id")
	for i := 0; i < 150; i++ {
		b.AppendStrings("same", string(rune('a'+i%3)), string(rune(i))+"u")
	}
	d := build(t, b)
	filtered, err := FilterAttrs(d, FilterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if filtered.NumAttrs() != 1 || filtered.Attr(0).Name() != "good" {
		t.Errorf("filtered attrs = %v", filtered.AttrNames())
	}
	// DropNames removes unconditionally.
	if _, err := FilterAttrs(d, FilterOptions{DropNames: []string{"good"}}); err == nil {
		t.Error("dropping the only surviving attribute should error")
	}
}

func TestString(t *testing.T) {
	d := sample(t)
	s := d.String()
	if !strings.Contains(s, "color(3)") || !strings.Contains(s, "5 rows") {
		t.Errorf("String = %q", s)
	}
}
