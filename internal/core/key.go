package core

import (
	"math"

	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

// Keyer encodes the values of an attribute set into compact group-by keys.
// When the product of the member domain sizes fits in 63 bits it produces
// mixed-radix uint64 keys (the fast path); otherwise it produces byte-string
// keys of two bytes per member attribute. Rows holding NULL in any member
// attribute have no key: they satisfy no pattern over the set.
type Keyer struct {
	attrs   lattice.AttrSet
	members []int    // ascending attribute indices
	mult    []uint64 // mixed-radix multipliers, aligned with members
	dims    []uint64 // domain sizes, aligned with members
	radix   uint64   // product of dims; key space is [0, radix) when fits
	fits    bool
}

// NewKeyer builds a Keyer for attribute set s over dataset d.
func NewKeyer(d *dataset.Dataset, s lattice.AttrSet) *Keyer {
	members := s.Members()
	k := &Keyer{
		attrs:   s,
		members: members,
		mult:    make([]uint64, len(members)),
		dims:    make([]uint64, len(members)),
		fits:    true,
	}
	prod := uint64(1)
	for j, i := range members {
		dim := domainRadix(d, i)
		k.dims[j] = dim
		k.mult[j] = prod
		if k.fits {
			prod, k.fits = mulRadix(prod, dim)
		}
	}
	if k.fits {
		k.radix = prod
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

// Fits reports whether the fast mixed-radix uint64 encoding is in use.
func (k *Keyer) Fits() bool { return k.fits }

// Radix returns the size of the mixed-radix key space — every key produced
// by the keyer lies in [0, radix) — and whether the encoding fits in uint64
// at all. The dense counting kernel uses it to size its flat count arrays.
func (k *Keyer) Radix() (radix uint64, ok bool) { return k.radix, k.fits }

// InvalidKey marks a row with NULL in a member attribute inside a key
// vector produced by KeyBlock. Valid keys are < 2^63 (NewKeyer caps the
// radix at MaxInt64), so the sentinel can never collide with one.
const InvalidKey = ^uint64(0)

// KeyBlock encodes rows [lo, hi) of the given columns into the key vector
// out (len hi-lo), writing InvalidKey for rows with NULL in any member
// attribute. The loop is columnar — one pass per member attribute over the
// block — so successive reads stay within a single column's cache lines;
// this is the batched form of KeyRow that feeds both the dense and the map
// counting kernels. The keyer must fit (see Fits).
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
// into a uint64 key. ok is false when any member attribute is NULL or the
// keyer does not fit in uint64.
func (k *Keyer) KeyVals(vals []uint16) (key uint64, ok bool) {
	if !k.fits {
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

// KeyRow encodes row r of the given columns. ok is false when any member
// attribute is NULL or the keyer does not fit in uint64.
func (k *Keyer) KeyRow(cols [][]uint16, r int) (key uint64, ok bool) {
	if !k.fits {
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

// Decode writes the value identifiers encoded in key into the dense slice
// vals (one slot per dataset attribute). Slots outside the keyer's members
// are left untouched.
func (k *Keyer) Decode(key uint64, vals []uint16) {
	for j := len(k.members) - 1; j >= 0; j-- {
		q := key / k.mult[j]
		vals[k.members[j]] = uint16(q) + 1
		key -= q * k.mult[j]
	}
}

// AppendBytesVals appends the byte-string key for a dense value slice to
// dst. ok is false when any member attribute is NULL.
func (k *Keyer) AppendBytesVals(dst []byte, vals []uint16) (out []byte, ok bool) {
	for _, i := range k.members {
		id := vals[i]
		if id == dataset.Null {
			return dst, false
		}
		dst = append(dst, byte(id), byte(id>>8))
	}
	return dst, true
}

// AppendBytesRow appends the byte-string key for row r of the given columns
// to dst. ok is false when any member attribute is NULL.
func (k *Keyer) AppendBytesRow(dst []byte, cols [][]uint16, r int) (out []byte, ok bool) {
	for _, i := range k.members {
		id := cols[i][r]
		if id == dataset.Null {
			return dst, false
		}
		dst = append(dst, byte(id), byte(id>>8))
	}
	return dst, true
}

// DecodeBytes writes the value identifiers of a byte-string key into the
// dense slice vals.
func (k *Keyer) DecodeBytes(key string, vals []uint16) {
	for j, i := range k.members {
		vals[i] = uint16(key[2*j]) | uint16(key[2*j+1])<<8
	}
}

// validBytes reports whether a byte-string key read from outside the
// engine names a value of every member's domain, as AppendBytesRow keys
// do: a key holding NULL or an identifier past a domain would decode to
// values no lookup could ask for.
func (k *Keyer) validBytes(key []byte) bool {
	if len(key) != 2*len(k.members) {
		return false
	}
	for j, dim := range k.dims {
		id := uint64(key[2*j]) | uint64(key[2*j+1])<<8
		if id == uint64(dataset.Null) || id > dim {
			return false
		}
	}
	return true
}
