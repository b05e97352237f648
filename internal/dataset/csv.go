package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// CSVOptions controls CSV parsing.
type CSVOptions struct {
	// Comma is the field delimiter; ',' when zero.
	Comma rune
	// NullTokens are the field values treated as NULL in addition to the
	// empty string. Comparison is case-sensitive.
	NullTokens []string
	// Name is the dataset display name.
	Name string
	// MaxRows, when positive, stops reading after that many kept data rows.
	MaxRows int
	// SkipRows, when positive, discards that many data rows after the
	// header before any row is stored. Skipped rows are parsed only to be
	// passed over — their values are never interned, so dictionaries grow
	// only from rows actually kept. Incremental updates use it to address
	// the appended suffix of a grown CSV: `pcbl update -since N` skips the
	// N already-labeled rows.
	SkipRows int
}

// ReadCSV reads a header-bearing CSV stream into a Dataset. The first record
// names the attributes; subsequent records are tuples. Empty fields and
// fields equal to one of opts.NullTokens are stored as NULL.
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	header, cr, err := readCSVHeader(r, opts)
	if err != nil {
		return nil, err
	}
	return readCSVRows(cr, NewBuilder(opts.Name, header...), opts)
}

// ReadCSVAppend reads the appended tail of a grown CSV into a delta
// dataset whose dictionaries extend base's: the header must name base's
// attributes in order, opts.SkipRows rows (typically the base's row count)
// are passed over without interning, and the remaining rows build on a copy
// of base's dictionaries — known values keep their identifiers, new values
// extend the domains. The result is exactly what core.Label.Merge expects
// as a delta's dataset. base may be schema-only (an artifact's reopened
// dataset): only its attribute dictionaries are consulted.
func ReadCSVAppend(r io.Reader, base *Dataset, opts CSVOptions) (*Dataset, error) {
	header, cr, err := readCSVHeader(r, opts)
	if err != nil {
		return nil, err
	}
	if len(header) != base.NumAttrs() {
		return nil, fmt.Errorf("dataset: CSV has %d columns, base dataset has %d attributes", len(header), base.NumAttrs())
	}
	for i, h := range header {
		if h != base.attrs[i].name {
			return nil, fmt.Errorf("dataset: CSV column %d named %q, base attribute is %q", i, h, base.attrs[i].name)
		}
	}
	return readCSVRows(cr, NewBuilderFrom(base, opts.Name), opts)
}

// readCSVHeader opens the CSV stream and returns the trimmed header names.
func readCSVHeader(r io.Reader, opts CSVOptions) ([]string, *csv.Reader, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	names := make([]string, len(header))
	for i, h := range header {
		names[i] = strings.TrimSpace(h)
	}
	return names, cr, nil
}

// readCSVRows streams data rows into the builder, honoring SkipRows and
// MaxRows.
func readCSVRows(cr *csv.Reader, b *Builder, opts CSVOptions) (*Dataset, error) {
	// A rejected header (a repeated name) leaves the builder with fewer
	// attributes than the rows have fields.
	if err := b.Err(); err != nil {
		return nil, err
	}
	nulls := make(map[string]bool, len(opts.NullTokens))
	for _, t := range opts.NullTokens {
		nulls[t] = true
	}
	row := make([]string, b.NumAttrs())
	n, kept := 0, 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row %d: %w", n+1, err)
		}
		n++
		if n <= opts.SkipRows {
			continue
		}
		for i, f := range rec {
			if nulls[f] {
				f = ""
			}
			row[i] = f
		}
		b.AppendStrings(row...)
		kept++
		if opts.MaxRows > 0 && kept >= opts.MaxRows {
			break
		}
	}
	return b.Build()
}

// ReadCSVFile reads a CSV file from disk via ReadCSV.
func ReadCSVFile(path string, opts CSVOptions) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if opts.Name == "" {
		opts.Name = path
	}
	return ReadCSV(f, opts)
}

// WriteCSV writes the dataset, header included, to w. NULLs are written as
// empty fields.
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	write := func(rec []string) error {
		if len(rec) != 1 || rec[0] != "" {
			return cw.Write(rec)
		}
		// encoding/csv writes a lone empty field as an empty line, which
		// readers skip; the quoted empty field reads back as one field.
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		_, err := io.WriteString(w, "\"\"\n")
		return err
	}
	if err := write(d.AttrNames()); err != nil {
		return err
	}
	row := make([]string, d.NumAttrs())
	for r := 0; r < d.NumRows(); r++ {
		for a := 0; a < d.NumAttrs(); a++ {
			row[a] = d.Value(r, a)
		}
		if err := write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the dataset to a file on disk via WriteCSV.
func WriteCSVFile(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
