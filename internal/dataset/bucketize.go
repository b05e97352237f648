package dataset

import (
	"fmt"
	"math"
	"slices"
	"strconv"
)

// BinStrategy selects how numeric values are partitioned into buckets.
type BinStrategy int

const (
	// EqualWidth splits [min, max] into k intervals of equal width.
	EqualWidth BinStrategy = iota
	// EqualFrequency chooses boundaries at quantiles so each bucket holds
	// (approximately) the same number of non-null tuples.
	EqualFrequency
)

// String implements fmt.Stringer.
func (s BinStrategy) String() string {
	switch s {
	case EqualWidth:
		return "equal-width"
	case EqualFrequency:
		return "equal-frequency"
	default:
		return fmt.Sprintf("BinStrategy(%d)", int(s))
	}
}

// BucketizeOptions configures Bucketize.
type BucketizeOptions struct {
	// Bins is the number of buckets; it must be at least 2.
	Bins int
	// Strategy selects the boundary placement; EqualWidth when zero.
	Strategy BinStrategy
}

// numericDomain parses every domain value of attr once: vals[id-1] is the
// value of id. ok is false when the domain is empty or a value is not a
// finite float: an attribute with no non-null values is not numeric, and a
// value that parses to NaN or an infinity is as non-numeric as any other
// token.
func numericDomain(attr *Attribute) (vals []float64, ok bool) {
	if len(attr.dom) == 0 {
		return nil, false
	}
	vals = make([]float64, len(attr.dom))
	for i, s := range attr.dom {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
}

// Bucketize returns a copy of the dataset in which the named attributes are
// re-encoded from numeric values into range buckets such as "[20,40)". The
// paper's Credit Card preparation bucketizes each numeric attribute into 5
// bins (§IV-A). Attributes whose domain is already at most opts.Bins values
// are left untouched. Non-numeric attributes among attrNames are an error.
func Bucketize(d *Dataset, attrNames []string, opts BucketizeOptions) (*Dataset, error) {
	if opts.Bins < 2 {
		return nil, errBins(opts)
	}
	targets := make(map[int][]float64, len(attrNames))
	for _, n := range attrNames {
		i, ok := d.AttrIndex(n)
		if !ok {
			return nil, fmt.Errorf("dataset: unknown attribute %q", n)
		}
		if d.Attr(i).DomainSize() <= opts.Bins {
			continue // already categorical enough
		}
		vals, ok := numericDomain(d.Attr(i))
		if !ok {
			return nil, fmt.Errorf("dataset: attribute %q is not numeric", n)
		}
		targets[i] = vals
	}
	return bucketize(d, targets, opts)
}

// BucketizeAllNumeric bucketizes every numeric attribute of the dataset.
func BucketizeAllNumeric(d *Dataset, opts BucketizeOptions) (*Dataset, error) {
	if opts.Bins < 2 {
		return nil, errBins(opts)
	}
	targets := make(map[int][]float64)
	for i, attr := range d.attrs {
		if attr.DomainSize() > opts.Bins {
			if vals, ok := numericDomain(attr); ok {
				targets[i] = vals
			}
		}
	}
	return bucketize(d, targets, opts)
}

func errBins(opts BucketizeOptions) error {
	return fmt.Errorf("dataset: bucketize needs at least 2 bins, got %d", opts.Bins)
}

// bucketize returns d with each attribute in targets bucketized, given its
// parsed domain. Every attribute is rebuilt by value identifier through one
// translation table: a bucketized value maps to its bucket's label, any
// other value to itself, and output identifiers are numbered in first-seen
// row order. That is the dataset appending each row's strings would build,
// so values no row holds are dropped and equal labels share an identifier.
func bucketize(d *Dataset, targets map[int][]float64, opts BucketizeOptions) (*Dataset, error) {
	out := &Dataset{name: d.name, rows: d.rows, attrs: make([]*Attribute, len(d.attrs)), cols: make([][]uint16, len(d.attrs))}
	for a, attr := range d.attrs {
		labels, group := attr.dom, []int(nil)
		if vals, ok := targets[a]; ok {
			var err error
			if labels, group, err = bucketLabels(d, a, vals, opts); err != nil {
				return nil, err
			}
		}
		out.attrs[a], out.cols[a] = relabel(attr.name, d.cols[a], labels, group)
	}
	return out, nil
}

// relabel re-encodes col, in which value id stands for labels[group[id-1]]
// (labels[id-1] when group is nil), numbering the labels in first-seen row
// order.
func relabel(name string, col []uint16, labels []string, group []int) (*Attribute, []uint16) {
	attr := NewAttribute(name)
	ids := make([]uint16, len(labels)) // label index -> output id; Null until seen
	out := make([]uint16, len(col))
	for r, id := range col {
		if id == Null {
			continue
		}
		g := int(id) - 1
		if group != nil {
			g = group[g]
		}
		if ids[g] == Null {
			attr.dom = append(attr.dom, labels[g])
			ids[g] = uint16(len(attr.dom))
			attr.ids[labels[g]] = ids[g]
		}
		out[r] = ids[g]
	}
	return attr, out
}

// bucketLabels places attribute a's bucket bounds under opts and maps each
// domain value to its bucket: value id stands for labels[group[id-1]].
// Each bucket's label is formatted once, and buckets whose labels print
// alike share one.
func bucketLabels(d *Dataset, a int, vals []float64, opts BucketizeOptions) (labels []string, group []int, err error) {
	var bounds []float64
	switch opts.Strategy {
	case EqualWidth:
		bounds = equalWidthBounds(vals, opts.Bins)
	case EqualFrequency:
		bounds = equalFrequencyBounds(d, a, vals, opts.Bins)
	default:
		return nil, nil, fmt.Errorf("dataset: unknown bin strategy %v", opts.Strategy)
	}
	if len(bounds) == 1 {
		// Every value parses to the same number: one closed bucket.
		bounds = append(bounds, bounds[0])
	}
	last := len(bounds) - 2
	index := make(map[string]int, last+1)
	bucket := make([]int, last+1) // bucket -> label index
	for i := range bucket {
		close := ")"
		if i == last {
			close = "]"
		}
		l := "[" + trimFloat(bounds[i]) + "," + trimFloat(bounds[i+1]) + close
		j, ok := index[l]
		if !ok {
			j = len(labels)
			index[l] = j
			labels = append(labels, l)
		}
		bucket[i] = j
	}
	group = make([]int, len(vals))
	for id, v := range vals {
		// The half-open bucket [bounds[i], bounds[i+1]) holding v; the
		// last bucket is closed and takes everything past it.
		i := 0
		for i < last && v >= bounds[i+1] {
			i++
		}
		group[id] = bucket[i]
	}
	return labels, group, nil
}

// equalWidthBounds returns k+1 boundaries splitting [min,max] evenly.
func equalWidthBounds(vals []float64, k int) []float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	bounds := make([]float64, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = lo + (hi-lo)*float64(i)/float64(k)
	}
	bounds[k] = hi
	return bounds
}

// equalFrequencyBounds returns boundaries at empirical quantiles, weighting
// each domain value by its tuple count. Duplicate boundaries are collapsed,
// so fewer than k buckets may result for heavily skewed attributes.
func equalFrequencyBounds(d *Dataset, a int, vals []float64, k int) []float64 {
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
	// slices.SortFunc runs the same pdqsort as sort.Slice, comparison for
	// comparison, so values that parse alike keep the order they always had.
	slices.SortFunc(pairs, func(x, y vc) int {
		switch {
		case x.v < y.v:
			return -1
		case x.v > y.v:
			return 1
		}
		return 0
	})
	bounds := []float64{pairs[0].v}
	cum, next := 0, total/k
	for _, p := range pairs {
		cum += p.c
		if cum >= next && len(bounds) < k {
			bounds = append(bounds, p.v)
			next = total * (len(bounds)) / k
		}
	}
	last := pairs[len(pairs)-1].v
	if bounds[len(bounds)-1] != last {
		bounds = append(bounds, last)
	}
	// Collapse duplicates.
	out := bounds[:1]
	for _, b := range bounds[1:] {
		if b != out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}

// trimFloat renders a bound compactly: an integer without a decimal point,
// any other value in the shortest form that parses back to it, so bounds
// that differ print differently.
func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
