package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestCSVErrors pins the scanner's failures: encoding/csv's sentinels under
// errors.Is, the row they name, malformed rows inside the skipped prefix
// still reported, and no error reported past the last row MaxRows keeps.
func TestCSVErrors(t *testing.T) {
	cases := []struct {
		in        string
		skip, max int
		sentinel  error
		where     string
	}{
		{"a,b\nx,y\nz\"q,w\n", 0, 0, csv.ErrBareQuote, "row 2"},
		{"a,b\nx,y\n\"open,w\n", 0, 0, csv.ErrQuote, "row 2"},
		{"a,b\n\"x\"y,w\n", 0, 0, csv.ErrQuote, "row 1"},
		{"a,b\nx,y\n\nz\n", 0, 0, csv.ErrFieldCount, "row 2"},
		{"a,b\nx\"y,z\nu,v\nw,x\n", 2, 0, csv.ErrBareQuote, "row 1"},
		{"a,b\nu,v\nw\nx,y\n", 2, 0, csv.ErrFieldCount, "row 2"},
		{"a\"b,c\nx,y\n", 0, 0, csv.ErrBareQuote, "header"},
		{"a,b\nx,y\nu,v\nw\n", 0, 2, nil, ""},
		{"a,b\nx,y\nu,v\n\"w\n", 1, 1, nil, ""},
	}
	for _, c := range cases {
		for _, block := range []int{csvBlockSize, 1, 3} {
			restore := SetCSVBlockSize(block)
			_, err := ReadCSV(strings.NewReader(c.in), CSVOptions{SkipRows: c.skip, MaxRows: c.max})
			restore()
			if c.sentinel == nil {
				if err != nil {
					t.Errorf("%q skip %d max %d block %d: %v", c.in, c.skip, c.max, block, err)
				}
				continue
			}
			if !errors.Is(err, c.sentinel) || !strings.HasPrefix(fmt.Sprint(err), "dataset: reading CSV "+c.where+": ") {
				t.Errorf("%q skip %d block %d: %v, want %v at %s", c.in, c.skip, block, err, c.sentinel, c.where)
			}
		}
	}
	for _, comma := range []rune{'"', '\n', '\r', -1} {
		if _, err := ReadCSV(strings.NewReader("a\n"), CSVOptions{Comma: comma}); err == nil {
			t.Errorf("delimiter %q accepted", comma)
		}
	}
}

// TestCSVDomainLimit reads one column of MaxDomainSize+1 distinct values,
// spread over many spans, at several GOMAXPROCS and block sizes: it fails
// with the full dictionary's error, and the first MaxDomainSize values read
// back as the reference reads them. ReadCSVAppend onto a base already
// holding most of the domain fails where its appended rows cross the limit.
func TestCSVDomainLimit(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("v\n")
	for i := 0; i <= MaxDomainSize; i++ {
		fmt.Fprintf(&sb, "x%d\n", i)
	}
	over := sb.String()
	exact := over[:strings.LastIndex(over[:len(over)-1], "\n")+1]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base, err := ReadCSV(strings.NewReader(exact), CSVOptions{MaxRows: MaxDomainSize - 500})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RefReadCSV(exact, nil, CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantDelta, err := RefReadCSV(exact, base, CSVOptions{SkipRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := RefReadCSV(over, nil, CSVOptions{})
	if wantErr == nil || !strings.Contains(wantErr.Error(), "exceeds") {
		t.Fatalf("reference read of %d values: %v", MaxDomainSize+1, wantErr)
	}
	for _, procs := range []int{1, 2, 8} {
		for _, block := range []int{csvBlockSize, 4 << 10, 61} {
			runtime.GOMAXPROCS(procs)
			restore := SetCSVBlockSize(block)
			what := fmt.Sprintf("GOMAXPROCS %d block %d", procs, block)
			if _, err := ReadCSV(strings.NewReader(over), CSVOptions{}); DiffErrors(err, wantErr) != "" {
				t.Errorf("%s: %d values: %v, want %v", what, MaxDomainSize+1, err, wantErr)
			}
			if got, err := ReadCSV(strings.NewReader(exact), CSVOptions{}); err != nil {
				t.Errorf("%s: %d values: %v", what, MaxDomainSize, err)
			} else if diff := DiffDatasets(got, want); diff != "" {
				t.Errorf("%s: %d values: %s", what, MaxDomainSize, diff)
			}
			if _, err := ReadCSVAppend(strings.NewReader(over), base, CSVOptions{SkipRows: 1000}); DiffErrors(err, wantErr) != "" {
				t.Errorf("%s: append: %v, want %v", what, err, wantErr)
			}
			if got, err := ReadCSVAppend(strings.NewReader(exact), base, CSVOptions{SkipRows: 1000}); err != nil {
				t.Errorf("%s: append of %d values: %v", what, MaxDomainSize, err)
			} else if diff := DiffDatasets(got, wantDelta); diff != "" {
				t.Errorf("%s: append of %d values: %s", what, MaxDomainSize, diff)
			}
			restore()
		}
	}
}

// TestReadCSVAppendLeavesBase checks that an append reads base's
// dictionaries in place: they are neither copied nor changed, and an
// append onto a delta flattens the chain.
func TestReadCSVAppendLeavesBase(t *testing.T) {
	base, err := ReadCSV(strings.NewReader("c,s\nred,S\nblue,M\n"), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	grown := "c,s\nred,S\nblue,M\ngreen,S\nred,L\n"
	delta, err := ReadCSVAppend(strings.NewReader(grown), base, CSVOptions{SkipRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if delta.Attr(0).base != base.Attr(0) || len(delta.Attr(0).ids) != 1 {
		t.Errorf("delta dictionary holds %d values of its own over base %p, want 1 over %p", len(delta.Attr(0).ids), delta.Attr(0).base, base.Attr(0))
	}
	if base.Attr(0).DomainSize() != 2 || len(base.Attr(0).ids) != 2 {
		t.Errorf("base dictionary changed: %v", base.Attr(0).Domain())
	}
	again, err := ReadCSVAppend(strings.NewReader(grown+"pink,XL\n"), delta, CSVOptions{SkipRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b := again.Attr(0).base; b == nil || b.base != nil || b.DomainSize() != 3 {
		t.Errorf("an append onto a delta reads a chained base")
	}
	if id, ok := again.Attr(0).ID("blue"); !ok || id != 2 {
		t.Errorf("blue = %d, %v; want 2", id, ok)
	}
	if got := again.Attr(0).Domain(); strings.Join(got, ",") != "red,blue,green,pink" {
		t.Errorf("domain %v", got)
	}
}
