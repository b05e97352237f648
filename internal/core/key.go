package core

import (
	"encoding/binary"
	"math"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// Keyer encodes the values of an attribute set into group-by keys of
// W ≥ 1 uint64 words. The members are packed, in order, into mixed-radix
// words: a member joins the current word while the word's key space stays
// within MaxInt64 and opens the next word otherwise. So W is 1 exactly
// when the product of the member domain sizes fits in 63 bits — the fast
// path, whose key is one uint64 — and a wider key is its W words,
// compared lexicographically. A key's record form, in spill records and
// as a map key, is its words little-endian (8W bytes). Rows holding NULL
// in any member attribute have no key: they satisfy no pattern over the
// set.
type Keyer struct {
	attrs   lattice.AttrSet
	members []int    // ascending attribute indices
	word    []int    // each member's word, aligned with members; nil for one word
	mult    []uint64 // mixed-radix multipliers within a word, aligned with members
	radix   []uint64 // per-word key space: word w lies in [0, radix[w])
}

// NewKeyer builds a Keyer for attribute set s over dataset d.
func NewKeyer(d *dataset.Dataset, s lattice.AttrSet) *Keyer {
	members := s.Members()
	k := &Keyer{
		attrs:   s,
		members: members,
		mult:    make([]uint64, len(members)),
		radix:   []uint64{1},
	}
	for j, i := range members {
		dim := domainRadix(d, i)
		w := len(k.radix) - 1
		prod, fits := mulRadix(k.radix[w], dim)
		if !fits {
			if k.word == nil {
				k.word = make([]int, len(members))
			}
			k.radix = append(k.radix, 1)
			w, prod = w+1, dim
		}
		if k.word != nil {
			k.word[j] = w
		}
		k.mult[j] = k.radix[w]
		k.radix[w] = prod
	}
	return k
}

// domainRadix is attribute a's digit in a mixed-radix key: its domain
// size, or 1 for an attribute that is entirely NULL (no row of it
// produces a key).
func domainRadix(d *dataset.Dataset, a int) uint64 {
	return max(uint64(d.Attr(a).DomainSize()), 1)
}

// mulRadix grows a key space by one attribute's digit. When the product
// would pass MaxInt64 the key no longer fits: it reports false and returns
// the key space unchanged.
func mulRadix(radix, dim uint64) (uint64, bool) {
	if radix > math.MaxInt64/dim {
		return radix, false
	}
	return radix * dim, true
}

// Attrs returns the attribute set the keyer covers.
func (k *Keyer) Attrs() lattice.AttrSet { return k.attrs }

// Words returns W, the key width in uint64 words.
func (k *Keyer) Words() int { return len(k.radix) }

// Radix returns the size of the mixed-radix key space of a one-word key —
// every key produced by the keyer lies in [0, radix) — and whether the key
// is one word at all. The dense counting kernel uses it to size its flat
// count arrays.
func (k *Keyer) Radix() (radix uint64, ok bool) { return k.radix[0], len(k.radix) == 1 }

// InvalidKey marks a row with NULL in a member attribute inside a key
// vector produced by KeyBlock. Valid key words are < 2^63 (NewKeyer caps
// every word's radix at MaxInt64), so the sentinel can never collide with
// one.
const InvalidKey = ^uint64(0)

// KeyBlock encodes rows [lo, hi) of the given columns into the key vector
// out (len hi-lo), writing InvalidKey for rows with NULL in any member
// attribute. The loop is columnar — one pass per member attribute over the
// block — so successive reads stay within a single column's cache lines;
// this is the batched form of KeyRow that feeds both the dense and the map
// counting kernels. The key must be one word (see Words).
func (k *Keyer) KeyBlock(cols [][]uint16, lo, hi int, out []uint64) {
	out = out[:hi-lo]
	for i := range out {
		out[i] = 0
	}
	for j, a := range k.members {
		col := cols[a][lo:hi]
		mult := k.mult[j]
		for i, id := range col {
			if id == dataset.Null {
				out[i] = InvalidKey
			} else if out[i] != InvalidKey {
				out[i] += uint64(id-1) * mult
			}
		}
	}
}

// KeyVals encodes a dense value slice (one identifier per dataset attribute)
// into a one-word key. ok is false when any member attribute is NULL or the
// key is wider than one word.
func (k *Keyer) KeyVals(vals []uint16) (key uint64, ok bool) {
	if len(k.radix) > 1 {
		return 0, false
	}
	for j, i := range k.members {
		id := vals[i]
		if id == dataset.Null {
			return 0, false
		}
		key += uint64(id-1) * k.mult[j]
	}
	return key, true
}

// KeyRow encodes row r of the given columns as a one-word key. ok is false
// when any member attribute is NULL or the key is wider than one word.
func (k *Keyer) KeyRow(cols [][]uint16, r int) (key uint64, ok bool) {
	if len(k.radix) > 1 {
		return 0, false
	}
	for j, i := range k.members {
		id := cols[i][r]
		if id == dataset.Null {
			return 0, false
		}
		key += uint64(id-1) * k.mult[j]
	}
	return key, true
}

// Decode writes the value identifiers encoded in a one-word key into the
// dense slice vals (one slot per dataset attribute). Slots outside the
// keyer's members are left untouched.
func (k *Keyer) Decode(key uint64, vals []uint16) {
	for j := len(k.members) - 1; j >= 0; j-- {
		q := key / k.mult[j]
		vals[k.members[j]] = uint16(q) + 1
		key -= q * k.mult[j]
	}
}

// appendKey appends the W words of a dense value slice's key to dst. ok is
// false when any member attribute is NULL.
func (k *Keyer) appendKey(dst []uint64, vals []uint16) (out []uint64, ok bool) {
	if len(k.radix) == 1 {
		key, ok := k.KeyVals(vals)
		if !ok {
			return dst, false
		}
		return append(dst, key), true
	}
	n := len(dst)
	dst = append(dst, make([]uint64, len(k.radix))...)
	for j, i := range k.members {
		id := vals[i]
		if id == dataset.Null {
			return dst[:n], false
		}
		dst[n+k.word[j]] += uint64(id-1) * k.mult[j]
	}
	return dst, true
}

// appendKeyRow appends the W words of row r's key to dst. ok is false when
// any member attribute is NULL.
func (k *Keyer) appendKeyRow(dst []uint64, cols [][]uint16, r int) (out []uint64, ok bool) {
	if len(k.radix) == 1 {
		key, ok := k.KeyRow(cols, r)
		if !ok {
			return dst, false
		}
		return append(dst, key), true
	}
	n := len(dst)
	dst = append(dst, make([]uint64, len(k.radix))...)
	for j, i := range k.members {
		id := cols[i][r]
		if id == dataset.Null {
			return dst[:n], false
		}
		dst[n+k.word[j]] += uint64(id-1) * k.mult[j]
	}
	return dst, true
}

// appendRecordRow appends the record form of row r's key — its W words
// little-endian — to dst. ok is false when any member attribute is NULL.
func (k *Keyer) appendRecordRow(dst []byte, cols [][]uint16, r int) (out []byte, ok bool) {
	var buf [8]uint64
	key, ok := k.appendKeyRow(buf[:0], cols, r)
	if !ok {
		return dst, false
	}
	return appendRecord(dst, key), true
}

// decodeKey writes the value identifiers of a W-word key into vals, as
// Decode does for one word.
func (k *Keyer) decodeKey(key []uint64, vals []uint16) {
	if len(key) == 1 {
		k.Decode(key[0], vals)
		return
	}
	w, rem := -1, uint64(0)
	for j := len(k.members) - 1; j >= 0; j-- {
		if k.word[j] != w {
			w = k.word[j]
			rem = key[w]
		}
		q := rem / k.mult[j]
		vals[k.members[j]] = uint16(q) + 1
		rem -= q * k.mult[j]
	}
}

// validKey reports whether a key read from outside the engine lies in the
// key space, so it decodes to a value of every member's domain.
func (k *Keyer) validKey(key []uint64) bool { return inKeySpace(key, k.radix) }

// inKeySpace reports whether key has a word for each radix, each word
// inside its radix.
func inKeySpace(key, radix []uint64) bool {
	if len(key) != len(radix) {
		return false
	}
	for w, word := range key {
		if word >= radix[w] {
			return false
		}
	}
	return true
}

// appendRecord appends a key's record form, its words little-endian.
func appendRecord(dst []byte, key []uint64) []byte {
	for _, word := range key {
		dst = binary.LittleEndian.AppendUint64(dst, word)
	}
	return dst
}

// appendWords appends the words of a key in record form.
func appendWords(dst []uint64, rec string) []uint64 {
	for i := 0; i < len(rec); i += 8 {
		var word uint64
		for b := i + 7; b >= i; b-- {
			word = word<<8 | uint64(rec[b])
		}
		dst = append(dst, word)
	}
	return dst
}
