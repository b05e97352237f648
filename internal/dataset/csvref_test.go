package dataset

// The row-by-row references the scanner, the writer and Bucketize are held
// to: encoding/csv's reader and writer and Builder.AppendStrings, one row
// and one string at a time, as this package read, wrote and bucketized
// before its byte-level and id-level paths. They are exported to the
// package's external tests.

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// RefReadCSV reads text as ReadCSV does (base nil) or as ReadCSVAppend
// does, through encoding/csv and AppendStrings. It stops at the first
// error, a full dictionary included.
func RefReadCSV(text string, base *Dataset, opts CSVOptions) (*Dataset, error) {
	cr := csv.NewReader(strings.NewReader(text))
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	names := make([]string, len(header))
	for i, h := range header {
		names[i] = strings.TrimSpace(h)
	}
	var b *Builder
	if base == nil {
		b = NewBuilder(opts.Name, names...)
	} else {
		if len(names) != base.NumAttrs() {
			return nil, fmt.Errorf("dataset: CSV has %d columns, base dataset has %d attributes", len(names), base.NumAttrs())
		}
		for i, h := range names {
			if h != base.attrs[i].name {
				return nil, fmt.Errorf("dataset: CSV column %d named %q, base attribute is %q", i, h, base.attrs[i].name)
			}
		}
		// A deep copy of base's dictionaries.
		b = NewBuilder(opts.Name, names...)
		for a, attr := range base.attrs {
			for _, v := range attr.dom {
				if _, err := b.InternValue(a, v); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := b.Err(); err != nil {
		return nil, err
	}
	nulls := make(map[string]bool, len(opts.NullTokens))
	for _, t := range opts.NullTokens {
		nulls[t] = true
	}
	row := make([]string, b.NumAttrs())
	n, kept := 0, 0
	for opts.MaxRows <= 0 || kept < opts.MaxRows {
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
		if err := b.AppendStrings(row...).Err(); err != nil {
			return nil, err
		}
		kept++
	}
	return b.Build()
}

// RefWriteCSV writes d through encoding/csv's writer, a row of strings at a
// time; a one-column NULL row is written `""`.
func RefWriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	write := func(rec []string) error {
		if len(rec) != 1 || rec[0] != "" {
			return cw.Write(rec)
		}
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

// refBucketize is Bucketize row by row: a label string per domain value,
// every row re-interned through AppendStrings, equal-frequency bounds
// sorted by sort.Slice. It shares equalWidthBounds and trimFloat with
// Bucketize.
func refBucketize(d *Dataset, attrNames []string, opts BucketizeOptions) (*Dataset, error) {
	if opts.Bins < 2 {
		return nil, errBins(opts)
	}
	relabel := make(map[int][]string)
	for _, n := range attrNames {
		a, ok := d.AttrIndex(n)
		if !ok {
			return nil, fmt.Errorf("dataset: unknown attribute %q", n)
		}
		if d.Attr(a).DomainSize() <= opts.Bins {
			continue
		}
		vals := make([]float64, d.Attr(a).DomainSize())
		for i, s := range d.Attr(a).Domain() {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: attribute %q is not numeric", n)
			}
			vals[i] = v
		}
		var bounds []float64
		switch opts.Strategy {
		case EqualWidth:
			bounds = equalWidthBounds(vals, opts.Bins)
		case EqualFrequency:
			bounds = refEqualFrequencyBounds(d, a, vals, opts.Bins)
		default:
			return nil, fmt.Errorf("dataset: unknown bin strategy %v", opts.Strategy)
		}
		if len(bounds) == 1 {
			bounds = append(bounds, bounds[0])
		}
		labels := make([]string, len(vals))
		for i, v := range vals {
			labels[i] = refBucketLabel(bounds, v)
		}
		relabel[a] = labels
	}
	b := NewBuilder(d.Name(), d.AttrNames()...)
	row := make([]string, d.NumAttrs())
	for r := 0; r < d.NumRows(); r++ {
		for a := 0; a < d.NumAttrs(); a++ {
			id := d.ID(r, a)
			switch labels, ok := relabel[a]; {
			case id == Null:
				row[a] = ""
			case ok:
				row[a] = labels[id-1]
			default:
				row[a] = d.Value(r, a)
			}
		}
		b.AppendStrings(row...)
	}
	return b.Build()
}

// refEqualFrequencyBounds is equalFrequencyBounds sorting with sort.Slice.
func refEqualFrequencyBounds(d *Dataset, a int, vals []float64, k int) []float64 {
	counts := d.ValueCounts(a)
	type vc struct {
		v float64
		c int
	}
	pairs := make([]vc, len(vals))
	total := 0
	for i := range vals {
		pairs[i] = vc{vals[i], counts[i]}
		total += counts[i]
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	bounds := []float64{pairs[0].v}
	cum, next := 0, total/k
	for _, p := range pairs {
		cum += p.c
		if cum >= next && len(bounds) < k {
			bounds = append(bounds, p.v)
			next = total * (len(bounds)) / k
		}
	}
	if last := pairs[len(pairs)-1].v; bounds[len(bounds)-1] != last {
		bounds = append(bounds, last)
	}
	out := bounds[:1]
	for _, b := range bounds[1:] {
		if b != out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}

func refBucketLabel(bounds []float64, v float64) string {
	for i := 0; i < len(bounds)-1; i++ {
		last := i == len(bounds)-2
		if v < bounds[i+1] || (last && v <= bounds[i+1]) {
			close := ")"
			if last {
				close = "]"
			}
			return fmt.Sprintf("[%s,%s%s", trimFloat(bounds[i]), trimFloat(bounds[i+1]), close)
		}
	}
	return fmt.Sprintf("[%s,%s]", trimFloat(bounds[len(bounds)-2]), trimFloat(bounds[len(bounds)-1]))
}

// DiffDatasets describes the first difference between two datasets: name,
// attribute names, dictionaries in identifier order and identifier
// columns. It is empty when they are equal.
func DiffDatasets(got, want *Dataset) string {
	switch {
	case got.name != want.name:
		return fmt.Sprintf("name %q, want %q", got.name, want.name)
	case got.rows != want.rows || len(got.attrs) != len(want.attrs):
		return fmt.Sprintf("shape %d×%d, want %d×%d", got.rows, len(got.attrs), want.rows, len(want.attrs))
	}
	for a, ga := range got.attrs {
		wa := want.attrs[a]
		if ga.name != wa.name || len(ga.dom) != len(wa.dom) {
			return fmt.Sprintf("attribute %d is %q of %d values, want %q of %d", a, ga.name, len(ga.dom), wa.name, len(wa.dom))
		}
		for i, v := range ga.dom {
			if wa.dom[i] != v {
				return fmt.Sprintf("attribute %q value %d is %q, want %q", ga.name, i+1, v, wa.dom[i])
			}
			if id, ok := ga.ID(v); !ok || id != uint16(i+1) {
				return fmt.Sprintf("attribute %q looks %q up as %d, %v", ga.name, v, id, ok)
			}
		}
		if len(got.cols[a]) != got.rows {
			return fmt.Sprintf("attribute %q column holds %d ids, want %d", ga.name, len(got.cols[a]), got.rows)
		}
		for r, id := range got.cols[a] {
			if want.cols[a][r] != id {
				return fmt.Sprintf("row %d attribute %q id %d, want %d", r, ga.name, id, want.cols[a][r])
			}
		}
	}
	return ""
}

var csvErrWhere = regexp.MustCompile(`^dataset: reading CSV (header|row \d+): `)

// DiffErrors describes how a reader's error differs from the reference's.
// A parse error must match the same encoding/csv sentinel and name the same
// row (or the header); any other error must read the same. It is empty when
// they agree.
func DiffErrors(got, want error) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("error %v, want %v", got, want)
	}
	if got == nil {
		return ""
	}
	for _, sentinel := range []error{csv.ErrBareQuote, csv.ErrQuote, csv.ErrFieldCount} {
		if errors.Is(want, sentinel) {
			if !errors.Is(got, sentinel) || csvErrWhere.FindString(got.Error()) != csvErrWhere.FindString(want.Error()) {
				return fmt.Sprintf("error %q, want %q", got, want)
			}
			return ""
		}
	}
	if got.Error() != want.Error() {
		return fmt.Sprintf("error %q, want %q", got, want)
	}
	return ""
}

// SetCSVBlockSize sets the scanner's block size and returns a function that
// restores it.
func SetCSVBlockSize(n int) (restore func()) {
	old := csvBlockSize
	csvBlockSize = n
	return func() { csvBlockSize = old }
}
