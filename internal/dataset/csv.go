package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
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
	// header before any row is stored. Skipped rows are scanned and
	// validated (quoting and field count) but never looked up or interned,
	// so dictionaries grow only from rows actually kept. Incremental
	// updates use it to address the appended suffix of a grown CSV:
	// `pcbl update -since N` skips the N already-labeled rows.
	SkipRows int
}

// ReadCSV reads a header-bearing CSV stream into a Dataset. The first record
// names the attributes; subsequent records are tuples. Empty fields and
// fields equal to one of opts.NullTokens are stored as NULL.
//
// The text is read with encoding/csv's rules: RFC 4180 quoting, "\r\n" read
// as "\n" (inside quoted fields too), a '\r' ending the input dropped, blank
// lines skipped and not counted as rows, header names trimmed, and every
// record holding the header's number of fields. A malformed row fails as
// "reading CSV row N", matching csv.ErrBareQuote, csv.ErrQuote or
// csv.ErrFieldCount under errors.Is. The input is read a bounded number of
// blocks at a time, and the rows of each read are parsed on up to
// GOMAXPROCS goroutines; the result does not depend on how many.
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	s, header, err := newCSVScanner(r, opts)
	if err != nil {
		return nil, err
	}
	return s.rows(NewBuilder(opts.Name, header...), opts)
}

// ReadCSVAppend reads the appended tail of a grown CSV into a delta
// dataset whose dictionaries extend base's: the header must name base's
// attributes in order, opts.SkipRows rows (typically the base's row count)
// are passed over without interning, and the remaining rows build on
// base's dictionaries, which are read and never copied or changed — known
// values keep their identifiers, new values extend the domains. The result
// is exactly what core.Label.Merge expects as a delta's dataset. base may
// be schema-only (an artifact's reopened dataset): only its attribute
// dictionaries are consulted.
func ReadCSVAppend(r io.Reader, base *Dataset, opts CSVOptions) (*Dataset, error) {
	s, header, err := newCSVScanner(r, opts)
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
	return s.rows(NewBuilderFrom(base, opts.Name), opts)
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

// csvError is a malformed-input failure of the scanner. Under errors.Is it
// matches encoding/csv's sentinel of the same text (csv.ErrBareQuote,
// csv.ErrQuote, csv.ErrFieldCount), so callers written against that
// reader's errors keep working.
type csvError string

func (e csvError) Error() string { return string(e) }

func (e csvError) Is(target error) bool { return target.Error() == string(e) }

const (
	errBareQuote  csvError = "bare \" in non-quoted-field"
	errQuote      csvError = "extraneous or missing \" in quoted-field"
	errFieldCount csvError = "wrong number of fields"
)

var (
	errInvalidDelim = errors.New("csv: invalid field or comment delimiter")
	// errIncomplete reports a record still open at the end of the bytes in
	// hand while more input may follow.
	errIncomplete = errors.New("dataset: incomplete CSV record")
)

// csvBlockSize is the size of one read from a CSV input. A read holds at
// most GOMAXPROCS blocks, more only while one row is longer than that.
// Tests shrink it so that span boundaries fall inside quoted fields, CRLFs
// and blank lines.
var csvBlockSize = 64 << 10

// csvScanner reads CSV text a buffer at a time. Each buffer's whole rows are
// cut into spans by quote parity (splitRows), the spans are parsed on up to
// GOMAXPROCS goroutines against the dictionaries as they stood before the
// buffer, and the spans merge in input order, so every identifier, error
// and row number is the one a row-by-row reader gives.
type csvScanner struct {
	r     io.Reader
	comma []byte          // the delimiter's UTF-8 encoding
	nulls map[string]bool // NULL tokens; nil when there are none
	procs int

	buf  []byte // buf[off:] is unparsed input; it starts at a record start
	off  int
	eof  bool
	rerr error // the reader's failure other than io.EOF

	cuts  []spanCut
	spans []*csvSpan
	remap []uint16
}

// newCSVScanner checks the delimiter and reads the header record, returning
// its trimmed names.
func newCSVScanner(r io.Reader, opts CSVOptions) (*csvScanner, []string, error) {
	comma := opts.Comma
	if comma == 0 {
		comma = ','
	}
	if comma == '"' || comma == '\r' || comma == '\n' || !utf8.ValidRune(comma) || comma == utf8.RuneError {
		return nil, nil, fmt.Errorf("dataset: reading CSV header: %w", errInvalidDelim)
	}
	s := &csvScanner{r: r, comma: utf8.AppendRune(nil, comma), procs: runtime.GOMAXPROCS(0)}
	if len(opts.NullTokens) > 0 {
		s.nulls = make(map[string]bool, len(opts.NullTokens))
		for _, t := range opts.NullTokens {
			s.nulls[t] = true
		}
	}
	var f fieldBuf
	for {
		next, err := nextRecord(s.buf, s.off, s.comma, s.eof, &f)
		if err == errIncomplete && s.rerr == nil {
			s.fill(true)
			continue
		}
		if err == errIncomplete {
			err = s.rerr
		}
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: reading CSV header: %w", err)
		}
		s.off = next
		names := make([]string, len(f.ends))
		for i := range names {
			names[i] = strings.TrimSpace(string(f.field(i)))
		}
		return s, names, nil
	}
}

// fill moves the unparsed input to the front of the buffer and reads until
// the buffer holds procs blocks or the input ends. long reports that the
// unparsed input holds no whole record: one row is longer than the buffer,
// which then doubles, so a long row costs reads and scans linear in its
// length.
func (s *csvScanner) fill(long bool) {
	tail := len(s.buf) - s.off
	want := s.procs * csvBlockSize
	if long {
		want = max(want, 2*tail)
	}
	s.buf = s.buf[:copy(s.buf, s.buf[s.off:])]
	s.off = 0
	for empty := 0; len(s.buf) < want && !s.eof && s.rerr == nil; {
		if len(s.buf) == cap(s.buf) {
			// The first read takes one block, so that a short input is held
			// in a buffer of about its size.
			size := want
			if cap(s.buf) == 0 {
				size = min(want, csvBlockSize)
			}
			nb := make([]byte, len(s.buf), size)
			copy(nb, s.buf)
			s.buf = nb
		}
		n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		switch {
		case err == io.EOF:
			s.eof = true
		case err != nil:
			s.rerr = err
		case n > 0:
			empty = 0
		default:
			// As bufio does, give up on a reader that keeps returning nothing.
			if empty++; empty == 100 {
				s.rerr = io.ErrNoProgress
			}
		}
	}
}

// rows reads the data records into bl, honoring SkipRows and MaxRows.
func (s *csvScanner) rows(bl *Builder, opts CSVOptions) (*Dataset, error) {
	// A rejected header (a repeated name) leaves the builder with fewer
	// attributes than the rows have fields.
	if err := bl.Err(); err != nil {
		return nil, err
	}
	rec, kept := 0, 0 // records read (skipped and kept), records kept
	long := false
	for opts.MaxRows <= 0 || kept < opts.MaxRows {
		s.fill(long)
		b := s.buf
		n := min(s.procs, (len(b)+csvBlockSize-1)/csvBlockSize)
		var used int
		s.cuts, used = splitRows(b, max(n, 1), s.eof, s.cuts[:0])
		if long = len(s.cuts) == 0; long {
			if s.eof || s.rerr != nil {
				break
			}
			continue
		}
		spans := s.prepare(bl, b, rec, kept, opts)
		if len(spans) == 1 {
			s.parse(spans[0])
		} else {
			var wg sync.WaitGroup
			for _, sp := range spans[1:] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.parse(sp)
				}()
			}
			s.parse(spans[0])
			wg.Wait()
		}
		for _, sp := range spans {
			if err := s.merge(bl, sp); err != nil {
				return nil, err
			}
			if sp.err != nil {
				if _, ok := sp.err.(csvError); ok {
					return nil, fmt.Errorf("dataset: reading CSV row %d: %w", sp.start+sp.recs+1, sp.err)
				}
				return nil, sp.err
			}
			rec, kept = sp.start+sp.recs, kept+sp.kept
		}
		s.off = used
	}
	if s.rerr != nil && (opts.MaxRows <= 0 || kept < opts.MaxRows) {
		return nil, fmt.Errorf("dataset: reading CSV row %d: %w", rec+1, s.rerr)
	}
	return bl.Build()
}

// prepare readies one span per cut of b, whose first record is record rec
// of the input: how many of its records are skipped and how many kept, and
// its columns reset to the dictionaries as they stand. Spans past MaxRows
// are left out.
func (s *csvScanner) prepare(bl *Builder, b []byte, rec, kept int, opts CSVOptions) []*csvSpan {
	for len(s.spans) < len(s.cuts) {
		sp := &csvSpan{cols: make([]spanCol, len(bl.attrs))}
		for c := range sp.cols {
			sp.cols[c].local = make(map[string]uint16)
		}
		s.spans = append(s.spans, sp)
	}
	for i, cut := range s.cuts {
		sp := s.spans[i]
		sp.b, sp.start, sp.recs, sp.kept, sp.err = b[cut.start:cut.end], rec, 0, 0, nil
		sp.skip = min(max(opts.SkipRows-rec, 0), cut.recs)
		sp.keep = cut.recs - sp.skip
		if opts.MaxRows > 0 {
			sp.keep = min(sp.keep, opts.MaxRows-kept)
		}
		for c := range sp.cols {
			col := &sp.cols[c]
			col.attr, col.known = bl.attrs[c], uint16(len(bl.attrs[c].dom))
			clear(col.local)
			col.vals, col.ids = col.vals[:0], slices.Grow(col.ids[:0], sp.keep)
		}
		rec, kept = rec+cut.recs, kept+sp.keep
		if opts.MaxRows > 0 && kept >= opts.MaxRows {
			return s.spans[:i+1]
		}
	}
	return s.spans[:len(s.cuts)]
}

// spanCut is a span of whole records in a buffer: b[start:end] holds recs
// records.
type spanCut struct{ start, end, recs int }

// splitRows cuts b, which starts at a record start, into at most n spans of
// about equal size, each ending at a record end, and counts each span's
// records, blank lines left out. A record ends at a newline outside quotes,
// where every '"' toggles quoting: inside a quoted field an escaped "" toggles
// twice, and on a well-formed row this parity is exactly the reader's
// state. A malformed row fails where the reader first sees it, before any
// cut it could displace. At EOF the last span runs to the end of b;
// otherwise it ends at b's last record end. used is the end of the last
// span.
func splitRows(b []byte, n int, atEOF bool, cuts []spanCut) (_ []spanCut, used int) {
	quoteAt := bytes.IndexByte(b, '"') // the first quote at or past pos; -1 for none
	inQuote := false
	start, end, recs := 0, 0, 0
	target := len(b) / n
	pos := 0
	for {
		i := bytes.IndexByte(b[pos:], '\n')
		if i < 0 {
			break
		}
		eol := pos + i
		wasIn := inQuote
		if quoteAt >= 0 && quoteAt < eol {
			if bytes.Count(b[quoteAt:eol], quoteByte)%2 == 1 {
				inQuote = !inQuote
			}
			if quoteAt = bytes.IndexByte(b[eol:], '"'); quoteAt >= 0 {
				quoteAt += eol
			}
		}
		pos = eol + 1
		if inQuote {
			continue
		}
		if wasIn || i > 1 || i == 1 && b[eol-1] != '\r' {
			recs++
		}
		end = pos
		if pos >= target && len(cuts) < n-1 {
			cuts = append(cuts, spanCut{start, end, recs})
			start, recs = end, 0
			target = len(b) * (len(cuts) + 1) / n
		}
	}
	if atEOF && pos < len(b) || atEOF && inQuote {
		tail := b[pos:]
		if inQuote || len(tail) > 1 || len(tail) == 1 && tail[0] != '\r' {
			recs++
		}
		end = len(b)
	}
	if end > start {
		cuts = append(cuts, spanCut{start, end, recs})
	}
	return cuts, end
}

var quoteByte = []byte{'"'}

// csvSpan is one span of whole records and its parse: the identifiers of
// its kept records, column by column, and the values its columns did not
// hold before the span, in first-seen order.
type csvSpan struct {
	b          []byte
	start      int // the input record index of the span's first record
	skip, keep int // records to validate only, then records to keep
	cols       []spanCol
	recs       int   // records parsed without error
	kept       int   // of those, records kept
	err        error // the failure of record recs, if any
	f          fieldBuf
}

// spanCol is one column of a span.
type spanCol struct {
	attr  *Attribute        // the column's dictionary, read-only while spans parse
	known uint16            // attr's domain size before the span
	local map[string]uint16 // values attr lacks, numbered past known
	vals  []string          // local's values by identifier
	ids   []uint16          // the kept records' identifiers
}

// id looks v up without allocating; only a value the column has never seen
// becomes a string, in the span's local dictionary.
func (c *spanCol) id(v []byte, nulls map[string]bool) (uint16, error) {
	if len(v) == 0 || nulls[string(v)] {
		return Null, nil
	}
	if id, ok := c.attr.idOf(v); ok {
		return id, nil
	}
	if id, ok := c.local[string(v)]; ok {
		return id, nil
	}
	// Every local value is new to attr, so this one would take the
	// dictionary past MaxDomainSize at the merge.
	if int(c.known)+len(c.vals) >= MaxDomainSize {
		return Null, c.attr.errFull()
	}
	s := string(v)
	c.vals = append(c.vals, s)
	id := c.known + uint16(len(c.vals))
	c.local[s] = id
	return id, nil
}

// parse scans sp's records: the first sp.skip are validated only, the next
// sp.keep are looked up into sp.cols. It stops at the first failure.
func (s *csvScanner) parse(sp *csvSpan) {
	b, comma, ncols := sp.b, s.comma, len(sp.cols)
	for pos := 0; pos < len(b) && sp.recs < sp.skip+sp.keep; {
		line, _, next := csvLine(b, pos)
		if len(line) == 0 {
			pos = next
			continue
		}
		keep := sp.recs >= sp.skip
		if bytes.IndexByte(line, '"') < 0 {
			// No quote: the fields are the line split at each delimiter.
			if bytes.Count(line, comma)+1 != ncols {
				sp.err = errFieldCount
				return
			}
			for c := 0; keep && c < ncols; c++ {
				field := line
				if i := bytes.Index(line, comma); i >= 0 {
					field, line = line[:i], line[i+len(comma):]
				}
				if sp.err = sp.keepField(c, field, s.nulls); sp.err != nil {
					return
				}
			}
		} else {
			next, sp.err = parseRecord(b, pos, comma, true, &sp.f)
			if sp.err == nil && len(sp.f.ends) != ncols {
				sp.err = errFieldCount
			}
			for c := 0; sp.err == nil && keep && c < ncols; c++ {
				sp.err = sp.keepField(c, sp.f.field(c), s.nulls)
			}
			if sp.err != nil {
				return
			}
		}
		sp.recs++
		if keep {
			sp.kept++
		}
		pos = next
	}
}

func (sp *csvSpan) keepField(c int, v []byte, nulls map[string]bool) error {
	col := &sp.cols[c]
	id, err := col.id(v, nulls)
	col.ids = append(col.ids, id)
	return err
}

// merge appends sp's kept records to bl, interning the span's new values in
// first-seen order, so identifiers are those a row-by-row reader assigns. A
// column crossing MaxDomainSize fails here; of several, the one a
// row-by-row reader reaches first.
func (s *csvScanner) merge(bl *Builder, sp *csvSpan) error {
	var full error
	fullRow := sp.kept
	for c := range sp.cols {
		col := &sp.cols[c]
		ids := col.ids[:sp.kept]
		if len(col.vals) == 0 {
			bl.cols[c] = append(bl.cols[c], ids...)
			continue
		}
		if cap(s.remap) < len(col.vals) {
			s.remap = make([]uint16, len(col.vals))
		}
		remap := s.remap[:len(col.vals)]
		clear(remap)
		dst := bl.cols[c]
		for r, id := range ids {
			if id > col.known {
				k := id - col.known - 1
				if remap[k] == Null {
					g, err := bl.attrs[c].intern(col.vals[k])
					if err != nil {
						if r < fullRow {
							full, fullRow = err, r
						}
						break
					}
					remap[k] = g
				}
				id = remap[k]
			}
			dst = append(dst, id)
		}
		bl.cols[c] = dst
	}
	bl.rows += sp.kept
	return full
}

// fieldBuf holds one record's unescaped fields: field i is
// rec[ends[i-1]:ends[i]].
type fieldBuf struct {
	rec  []byte
	ends []int
}

func (f *fieldBuf) field(i int) []byte {
	lo := 0
	if i > 0 {
		lo = f.ends[i-1]
	}
	return f.rec[lo:f.ends[i]]
}

// csvLine returns the line at b[pos:] as encoding/csv's reader sees it:
// without its newline, and with one '\r' before the newline or before the
// end of b dropped. nl reports a newline; next is the offset past the line.
func csvLine(b []byte, pos int) (line []byte, nl bool, next int) {
	i := bytes.IndexByte(b[pos:], '\n')
	if i < 0 {
		line, next = b[pos:], len(b)
	} else {
		line, nl, next = b[pos:pos+i], true, pos+i+1
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nl, next
}

// nextRecord skips blank lines from b[pos:] and parses the record after
// them into f, returning the offset past it; io.EOF when none is left.
// atEOF reports that b ends the input.
func nextRecord(b []byte, pos int, comma []byte, atEOF bool, f *fieldBuf) (int, error) {
	for {
		line, nl, next := csvLine(b, pos)
		switch {
		case !nl && !atEOF:
			return 0, errIncomplete
		case len(line) > 0:
			return parseRecord(b, pos, comma, atEOF, f)
		case !nl:
			return 0, io.EOF
		}
		pos = next
	}
}

// parseRecord parses the non-blank record at b[pos:] into f exactly as
// encoding/csv's reader does, and returns the offset past it. Inside a
// quoted field a record runs on over newlines, which read as "\n".
func parseRecord(b []byte, pos int, comma []byte, atEOF bool, f *fieldBuf) (int, error) {
	f.rec, f.ends = f.rec[:0], f.ends[:0]
	line, nl, next := csvLine(b, pos)
fields:
	for {
		if len(line) == 0 || line[0] != '"' {
			field := line
			i := bytes.Index(line, comma)
			if i >= 0 {
				field = line[:i]
			}
			if bytes.IndexByte(field, '"') >= 0 {
				return 0, errBareQuote
			}
			f.rec = append(f.rec, field...)
			f.ends = append(f.ends, len(f.rec))
			if i < 0 {
				return next, nil
			}
			line = line[i+len(comma):]
			continue
		}
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				f.rec = append(f.rec, line[:i]...)
				line = line[i+1:]
				switch {
				case len(line) > 0 && line[0] == '"':
					f.rec = append(f.rec, '"')
					line = line[1:]
				case bytes.HasPrefix(line, comma):
					f.ends = append(f.ends, len(f.rec))
					line = line[len(comma):]
					continue fields
				case len(line) == 0:
					f.ends = append(f.ends, len(f.rec))
					return next, nil
				default:
					return 0, errQuote
				}
			case len(line) > 0 || nl:
				f.rec = append(f.rec, line...)
				if nl {
					f.rec = append(f.rec, '\n')
				}
				line, nl, next = csvLine(b, next)
				if !nl && !atEOF {
					return 0, errIncomplete
				}
			default:
				return 0, errQuote // the input ends inside a quoted field
			}
		}
	}
}

// csvWriteSize is the smallest write WriteCSV makes but for its last.
const csvWriteSize = 64 << 10

// WriteCSV writes the dataset, header included, to w, byte for byte as
// encoding/csv's writer writes the rows' strings: a field is quoted when it
// holds a comma, '"', '\r' or '\n', starts with a Unicode space, or is `\.`.
// NULLs are written as empty fields, except in a one-column dataset, where
// an empty line would read back as no row: there a NULL is written `""`.
func WriteCSV(w io.Writer, d *Dataset) error {
	one := d.NumAttrs() == 1
	buf := make([]byte, 0, csvWriteSize+4<<10)
	for a, name := range d.AttrNames() {
		if a > 0 {
			buf = append(buf, ',')
		}
		buf = appendCSVField(buf, name, one)
	}
	buf = append(buf, '\n')
	// Every domain value is encoded once: enc[a][id] is value id of
	// attribute a as written.
	enc := make([][][]byte, d.NumAttrs())
	for a, attr := range d.attrs {
		var flat []byte
		ends := make([]int, len(attr.dom)+1)
		flat = appendCSVField(flat, "", one)
		ends[0] = len(flat)
		for i, v := range attr.dom {
			flat = appendCSVField(flat, v, one)
			ends[i+1] = len(flat)
		}
		enc[a] = make([][]byte, len(ends))
		lo := 0
		for i, hi := range ends {
			enc[a][i], lo = flat[lo:hi:hi], hi
		}
	}
	for r := 0; r < d.rows; r++ {
		for a, col := range d.cols {
			if a > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, enc[a][col[r]]...)
		}
		buf = append(buf, '\n')
		if len(buf) >= csvWriteSize {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendCSVField appends field as encoding/csv's writer writes it with the
// delimiter ','. one marks a one-column record, where an empty field is
// written `""` so that its line is not blank.
func appendCSVField(dst []byte, field string, one bool) []byte {
	if field == "" {
		if one {
			return append(dst, `""`...)
		}
		return dst
	}
	r, _ := utf8.DecodeRuneInString(field)
	if field != `\.` && !strings.ContainsAny(field, ",\"\r\n") && !unicode.IsSpace(r) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(field, '"')
		if i < 0 {
			break
		}
		dst = append(dst, field[:i+1]...)
		dst = append(dst, '"')
		field = field[i+1:]
	}
	dst = append(dst, field...)
	return append(dst, '"')
}
