package dataset

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

// fuzzCommas are the delimiters FuzzReadCSV draws from: the usual ones, a
// rune itself a letter, multi-byte runes, and runes encoding/csv rejects.
var fuzzCommas = []rune{0, ',', ';', '\t', 'a', 'é', '€', '"', '\n', '\r', utf8.RuneError, utf8.MaxRune + 1}

// FuzzReadCSV holds the scanner to encoding/csv on arbitrary text, with a
// fuzzed delimiter, NULL token, SkipRows, MaxRows and block size (a small
// one puts span boundaries inside quoted fields, CRLFs and blank lines).
// ReadCSV, ReadCSVAppend onto a dataset of the text's first rows, and
// ReadCSVAppend onto that delta must each equal RefReadCSV: the same
// dataset, or an error of the same class naming the same row. WriteCSV of
// every dataset read must equal RefWriteCSV byte for byte.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,a\nx,y\n", "", uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add("a, a\nx,y\n", "", uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add("a,b\nx,NULL\nNA,y\nx,y\n", "NULL", uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add("c\nx\n\"\"\ny\n", "", uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add("a,b\n\"q,1\",\"\"\"\"\nz,w\n", "z", uint8(5), uint8(0), uint8(0), uint8(0))
	f.Add("a,b\n\"line\none\",x\ny,\"two\nlines\nhere\"\nz,w\n", "", uint8(1), uint8(2), uint8(0), uint8(5))
	f.Add("a,b\r\n\"cr\r\nlf\",x\r\ny,z\r\n", "", uint8(0), uint8(0), uint8(0), uint8(3))
	f.Add("a,b\nx,y\nz,w\r", "", uint8(1), uint8(0), uint8(0), uint8(1))
	f.Add("a,b\n\nx,y\n\r\n\nz,w\n\n", "", uint8(1), uint8(1), uint8(0), uint8(7))
	f.Add("a,b\nx,y\nz\"q,w\n", "", uint8(1), uint8(0), uint8(0), uint8(2))
	f.Add("a,b\nx,y\n\"open,w\nmore\n", "", uint8(0), uint8(0), uint8(0), uint8(4))
	f.Add("c\n\"\"\nx\n\"\"\n", "", uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add("a;b\nx;\"y;z\"\n", "", uint8(0), uint8(0), uint8(2), uint8(0))
	f.Add("a€b\nx€y\nw€\"v€\"\n", "", uint8(1), uint8(0), uint8(6), uint8(3))
	f.Add("a,b\n\\.,\" x\"\n\u00a0y,\"q\"\"\"\n", "", uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, text, null string, skip, maxRows, comma, block uint8) {
		if block%8 != 0 {
			// At most about 256 blocks: each read round resets every
			// column of every span, so a few-byte block on a long, wide
			// input only slows the fuzzer down.
			defer SetCSVBlockSize(max(int(block%32)+1, len(text)/256))()
		}
		opts := CSVOptions{
			Comma:      fuzzCommas[int(comma)%len(fuzzCommas)],
			NullTokens: []string{null},
			Name:       "fuzz",
			SkipRows:   int(skip % 8),
			MaxRows:    int(maxRows % 8),
		}
		check := func(what string, base *Dataset) *Dataset {
			got, err := readFuzzCSV(text, base, opts)
			want, werr := RefReadCSV(text, base, opts)
			if diff := DiffErrors(err, werr); diff != "" {
				t.Fatalf("%s: %s", what, diff)
			}
			if err != nil {
				return nil
			}
			if diff := DiffDatasets(got, want); diff != "" {
				t.Fatalf("%s: %s", what, diff)
			}
			var gotCSV, wantCSV bytes.Buffer
			if err := WriteCSV(&gotCSV, got); err != nil {
				t.Fatal(err)
			}
			if err := RefWriteCSV(&wantCSV, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
				t.Fatalf("%s: WriteCSV wrote %q, encoding/csv writes %q", what, gotCSV.Bytes(), wantCSV.Bytes())
			}
			return got
		}
		check("ReadCSV", nil)
		base, err := ReadCSV(strings.NewReader(text), CSVOptions{Comma: opts.Comma, NullTokens: opts.NullTokens, MaxRows: 1 + int(skip%4)})
		if err != nil {
			return
		}
		if delta := check("ReadCSVAppend", base); delta != nil {
			check("ReadCSVAppend onto a delta", delta)
		}
	})
}

func readFuzzCSV(text string, base *Dataset, opts CSVOptions) (*Dataset, error) {
	if base == nil {
		return ReadCSV(strings.NewReader(text), opts)
	}
	return ReadCSVAppend(strings.NewReader(text), base, opts)
}
