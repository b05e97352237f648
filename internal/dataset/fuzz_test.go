package dataset

import (
	"strings"
	"testing"
)

// FuzzReadCSV checks the CSV ingest invariants on arbitrary text: ReadCSV
// either errors or returns a dataset whose VC table sums to each column's
// non-NULL count with every identifier inside its domain, and appending
// the same text onto that dataset past skip rows yields exactly the rows
// from skip on, with no domain growing.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,a\nx,y\n", "", uint8(0))
	f.Add("a, a\nx,y\n", "", uint8(0))
	f.Add("a,b\nx,NULL\nNA,y\nx,y\n", "NULL", uint8(1))
	f.Add("c\nx\n\"\"\ny\n", "", uint8(2))
	f.Add("a,b\n\"q,1\",\"\"\"\"\nz,w\n", "z", uint8(5))
	f.Fuzz(func(t *testing.T, text, null string, skip uint8) {
		opts := CSVOptions{NullTokens: []string{null}}
		d, err := ReadCSV(strings.NewReader(text), opts)
		if err != nil {
			return
		}
		vc, _ := d.VCTable()
		for a := 0; a < d.NumAttrs(); a++ {
			sum := 0
			for _, c := range vc[a] {
				sum += c
			}
			if sum != d.NonNullCount(a) {
				t.Fatalf("attribute %d: VC sums to %d, %d non-NULL rows", a, sum, d.NonNullCount(a))
			}
			dom := d.Attr(a).DomainSize()
			for r, id := range d.Col(a) {
				if int(id) > dom {
					t.Fatalf("row %d attribute %d: id %d outside domain of %d", r, a, id, dom)
				}
			}
		}

		opts.SkipRows = int(skip)
		delta, err := ReadCSVAppend(strings.NewReader(text), d, opts)
		if err != nil {
			t.Fatalf("ReadCSVAppend rejected text ReadCSV accepted: %v", err)
		}
		want := max(d.NumRows()-int(skip), 0)
		if delta.NumRows() != want {
			t.Fatalf("append kept %d rows, want %d", delta.NumRows(), want)
		}
		for a := 0; a < d.NumAttrs(); a++ {
			if got, base := delta.Attr(a).DomainSize(), d.Attr(a).DomainSize(); got != base {
				t.Fatalf("attribute %d: domain grew from %d to %d", a, base, got)
			}
			for r := 0; r < want; r++ {
				if got, base := delta.ID(r, a), d.ID(int(skip)+r, a); got != base {
					t.Fatalf("row %d attribute %d: id %d, base row has %d", r, a, got, base)
				}
			}
		}
	})
}
