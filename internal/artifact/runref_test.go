package artifact

// A reference codec for sorted run files, written from
// docs/artifact-format.md rather than from internal/spill, so the tests
// that mutate, down-convert or fuzz spilled payloads judge the decoder
// under test against the format's definition.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Sorted-run framing constants, as the format document defines them.
const (
	runHdrLen       = 16
	runFrameEntries = 4096
)

// runEntry is one decoded sorted-run entry: a key of W uint64 words and
// its count.
type runEntry struct {
	key   []uint64
	count uint64
}

// decodeRunRef decodes one sorted run file of words-word keys. It returns
// every entry in file order, the rows its frames declare, and the first
// rule of the format the file breaks, if any.
func decodeRunRef(data []byte, words int) (entries []runEntry, rows int64, err error) {
	minEntry, maxEntry := words+1, words*binary.MaxVarintLen64+5
	for off := 0; off < len(data); {
		if len(data)-off < runHdrLen {
			return entries, rows, fmt.Errorf("truncated header at %d", off)
		}
		hdr := data[off : off+runHdrLen]
		plen := int(binary.LittleEndian.Uint32(hdr[0:]))
		n := int(binary.LittleEndian.Uint32(hdr[4:]))
		frameRows := uint64(binary.LittleEndian.Uint32(hdr[8:]))
		if n < 1 || n > runFrameEntries || plen < n*minEntry || plen > n*maxEntry || frameRows < uint64(n) {
			return entries, rows, fmt.Errorf("bad header at %d: %d entries, %d bytes, %d rows", off, n, plen, frameRows)
		}
		if len(data)-off-runHdrLen < plen {
			return entries, rows, fmt.Errorf("truncated payload at %d", off)
		}
		p := data[off+runHdrLen : off+runHdrLen+plen]
		if crc32.Update(crc32.Checksum(hdr[:12], castagnoli), castagnoli, p) != binary.LittleEndian.Uint32(hdr[12:]) {
			return entries, rows, fmt.Errorf("checksum mismatch at %d", off)
		}
		left := frameRows
		for i := 0; i < n; i++ {
			e := runEntry{key: make([]uint64, words)}
			for j := range e.key {
				word, m := binary.Uvarint(p)
				if m <= 0 {
					return entries, rows, fmt.Errorf("bad key varint at frame %d entry %d", off, i)
				}
				p = p[m:]
				e.key[j] = word
			}
			if i > 0 {
				// The first word is a gap from the previous entry's.
				prev := entries[len(entries)-1].key[0]
				if e.key[0] > math.MaxUint64-prev {
					return entries, rows, fmt.Errorf("keys do not ascend at frame %d entry %d", off, i)
				}
				e.key[0] += prev
			}
			if len(entries) > 0 && slices.Compare(e.key, entries[len(entries)-1].key) <= 0 {
				return entries, rows, fmt.Errorf("keys do not ascend at frame %d entry %d", off, i)
			}
			c, m := binary.Uvarint(p)
			if m <= 0 {
				return entries, rows, fmt.Errorf("bad count varint at frame %d entry %d", off, i)
			}
			p = p[m:]
			if c == 0 || c > left {
				return entries, rows, fmt.Errorf("count %d with %d rows left at frame %d entry %d", c, left, off, i)
			}
			left -= c
			e.count = c
			entries = append(entries, e)
		}
		if len(p) != 0 || left != 0 {
			return entries, rows, fmt.Errorf("frame at %d: %d trailing bytes, %d rows uncounted", off, len(p), left)
		}
		rows += int64(frameRows)
		off += runHdrLen + plen
	}
	return entries, rows, nil
}

// encodeRunRef encodes entries in the given order, valid or not, as a
// sorted run; fixRunCRCs recomputes checksums.
func encodeRunRef(entries []runEntry) []byte {
	var out []byte
	for lo := 0; lo < len(entries); lo += runFrameEntries {
		frame := entries[lo:min(lo+runFrameEntries, len(entries))]
		var p []byte
		var rows uint64
		for i, e := range frame {
			gap := e.key[0]
			if i > 0 {
				gap -= frame[i-1].key[0]
			}
			p = binary.AppendUvarint(p, gap)
			for _, word := range e.key[1:] {
				p = binary.AppendUvarint(p, word)
			}
			p = binary.AppendUvarint(p, e.count)
			rows += e.count
		}
		hdr := make([]byte, runHdrLen)
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(frame)))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(rows))
		out = append(append(out, hdr...), p...)
	}
	return fixRunCRCs(out)
}

// fixRunCRCs rewrites the checksum of every whole frame of data in place,
// following the frames' own (possibly mutated) lengths, and returns data.
func fixRunCRCs(data []byte) []byte {
	for off := 0; off+runHdrLen <= len(data); {
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		if plen > len(data)-off-runHdrLen {
			break
		}
		hdr := data[off : off+runHdrLen]
		crc := crc32.Update(crc32.Checksum(hdr[:12], castagnoli), castagnoli, data[off+runHdrLen:off+runHdrLen+plen])
		binary.LittleEndian.PutUint32(hdr[12:], crc)
		off += runHdrLen + plen
	}
	return data
}

// runHeaderEntries sums the entries the whole frames of data declare.
func runHeaderEntries(data []byte) int {
	n := 0
	for off := 0; off+runHdrLen <= len(data); {
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		if plen > len(data)-off-runHdrLen {
			break
		}
		n += int(binary.LittleEndian.Uint32(data[off+4:]))
		off += runHdrLen + plen
	}
	return n
}
