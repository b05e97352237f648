package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/url"
	"sort"
	"strings"
	"time"

	"pcbl"
)

// keySep joins attribute values into an oracle key; no generated value
// contains it.
const keySep = "\x1f"

// setOracle holds the naive group-by counts over one attribute set: one
// map per epoch, built from that epoch's rows only (epoch 0 is the base
// CSV, epoch k the rows update k appends). A count at epoch k is the sum
// over epochs 0..k.
type setOracle struct {
	attrs  []int
	names  []string
	epochs []map[string]int
	sizes  []int // distinct keys over epochs 0..k
}

// groupBy is the Counter idiom: one map increment per row.
func groupBy(d *pcbl.Dataset, attrs []int, lo, hi int) map[string]int {
	counts := make(map[string]int)
	vals := make([]string, len(attrs))
	for r := lo; r < hi; r++ {
		for i, a := range attrs {
			vals[i] = d.Value(r, a)
		}
		counts[strings.Join(vals, keySep)]++
	}
	return counts
}

func newSetOracle(d *pcbl.Dataset, attrs []int, bounds []int) *setOracle {
	s := &setOracle{attrs: attrs}
	for _, a := range attrs {
		s.names = append(s.names, d.Attr(a).Name())
	}
	lo, size := 0, 0
	for k, hi := range bounds {
		m := groupBy(d, attrs, lo, hi)
		for key := range m {
			if s.count(key, k-1) == 0 {
				size++
			}
		}
		s.epochs = append(s.epochs, m)
		s.sizes = append(s.sizes, size)
		lo = hi
	}
	return s
}

func (s *setOracle) count(key string, epoch int) int {
	n := 0
	for k := 0; k <= epoch && k < len(s.epochs); k++ {
		n += s.epochs[k][key]
	}
	return n
}

// countKey is count of a key held in a reused buffer; the map lookups do
// not copy it.
func (s *setOracle) countKey(key []byte, epoch int) int {
	n := 0
	for k := 0; k <= epoch && k < len(s.epochs); k++ {
		n += s.epochs[k][string(key)]
	}
	return n
}

// oracle answers every query of a workload from the generated rows,
// independently of the code under test.
type oracle struct {
	d      *pcbl.Dataset // the generated rows of every epoch
	bounds []int         // bounds[k]: row count at epoch k
	label  *setOracle    // over the label attributes S
	single []*setOracle  // per attribute: its value distribution
	seen   [][]string    // per attribute, the values the base rows hold

	groupByMS float64 // full-row Counter over the base rows: the reference
	distinct  int     // distinct base rows, |P_A|
}

func newOracle(d *pcbl.Dataset, bounds []int, labelAttrs []int) *oracle {
	o := &oracle{d: d, bounds: bounds}
	all := make([]int, d.NumAttrs())
	for a := range all {
		all[a] = a
	}
	t := time.Now()
	o.distinct = len(groupBy(d, all, 0, bounds[0]))
	o.groupByMS = ms(time.Since(t))
	o.label = newSetOracle(d, labelAttrs, bounds)
	for a := range all {
		o.single = append(o.single, newSetOracle(d, []int{a}, bounds))
		var vals []string
		for key := range o.single[a].epochs[0] {
			vals = append(vals, key)
		}
		sort.Strings(vals)
		o.seen = append(o.seen, vals)
	}
	return o
}

// checkLabel compares every entry of a committed label with the oracle at
// epoch: row count, size, and each pattern's count.
func (o *oracle) checkLabel(l *label, epoch int) error {
	want := o.label
	if got := labelAttrNames(l); strings.Join(got, ",") != strings.Join(want.names, ",") {
		return fmt.Errorf("label attributes %v, want %v", got, want.names)
	}
	if l.Rows() != o.bounds[epoch] || l.Size() != want.sizes[epoch] {
		return fmt.Errorf("label has %d rows and %d patterns, want %d and %d",
			l.Rows(), l.Size(), o.bounds[epoch], want.sizes[epoch])
	}
	n, bad := 0, ""
	var key []byte
	err := eachPattern(l, func(vals []string, count int) {
		n++
		key = key[:0]
		for i, v := range vals {
			if i > 0 {
				key = append(key, keySep...)
			}
			key = append(key, v...)
		}
		if c := want.countKey(key, epoch); c != count && bad == "" {
			bad = fmt.Sprintf("pattern %q counts %d, want %d", vals, count, c)
		}
	})
	switch {
	case err != nil:
		return err
	case bad != "":
		return fmt.Errorf("%s", bad)
	case n != want.sizes[epoch]:
		return fmt.Errorf("label lists %d patterns, want %d", n, want.sizes[epoch])
	}
	return nil
}

type reqKind int

const (
	kindCount reqKind = iota
	kindEstimate
	kindMarginal
	numKinds
)

// request is one query of the pool and its expected answer.
type request struct {
	kind  reqKind
	path  string     // URL path and query
	expr  string     // count and estimate: the pattern expression
	attrs []string   // the attribute names the query is over
	want  []int      // count: the oracle's count per epoch
	est   []float64  // estimate: the in-process answer per epoch
	set   *setOracle // marginal: the attribute answered over
}

// poolSize is the number of requests both loops cycle through. It bounds
// the attribute sets a run queries, and so the marginal indexes a served
// generation caches.
const poolSize = 4096

// buildPool draws the seeded query mix, each request's attribute set drawn
// on its own and uniformly:
//
//   - counts 50%: half over the whole label set S, half over a nonempty
//     proper subset of S, every subset alike likely; a tenth of all counts
//     miss;
//   - estimates 40%: 1 to 4 attributes of the whole schema, the size
//     uniform, then every set of that size alike likely;
//   - marginals 10%: one attribute of S, its value distribution. A
//     marginal lists every pattern of its subset, which over several
//     attributes of hicard-spill is tens of thousands of entries.
//
// Values come from base rows, so every request is valid at every epoch.
func (o *oracle) buildPool(rng *rand.Rand, n int) []request {
	S := o.label.attrs
	all := make([]int, o.d.NumAttrs())
	for a := range all {
		all[a] = a
	}
	// The group-bys over proper subsets of S are needed only while the
	// pool is drawn: each count keeps its own answers.
	subsets := make(map[string]*setOracle)
	subset := func(attrs []int) *setOracle {
		id := fmt.Sprint(attrs)
		if subsets[id] == nil {
			subsets[id] = newSetOracle(o.d, attrs, o.bounds)
		}
		return subsets[id]
	}
	pool := make([]request, 0, n)
	for len(pool) < n {
		var r request
		switch u := rng.Float64(); {
		case u < 0.5:
			set := o.label
			if u >= 0.25 && len(S) > 1 {
				set = subset(properSubset(rng, S))
			}
			r = o.countRequest(rng, set, rng.Float64() < 0.1)
		case u < 0.9:
			r = o.estimateRequest(rng, randomSubset(rng, all, 1+rng.IntN(min(4, len(all)))))
		default:
			set := o.single[S[rng.IntN(len(S))]]
			r = request{kind: kindMarginal, set: set, attrs: set.names,
				path: "/v1/marginal?attrs=" + url.QueryEscape(strings.Join(set.names, ","))}
		}
		pool = append(pool, r)
	}
	return pool
}

// properSubset draws a nonempty proper subset of s (len(s) >= 2), every
// one alike likely.
func properSubset(rng *rand.Rand, s []int) []int {
	for {
		mask := rng.Uint64N(1 << len(s))
		if mask == 0 || mask == 1<<len(s)-1 {
			continue
		}
		var sub []int
		for i, a := range s {
			if mask&(1<<i) != 0 {
				sub = append(sub, a)
			}
		}
		return sub
	}
}

// attrSets returns how many distinct attribute sets the pool's requests
// are over, and the share of requests whose set an earlier request of the
// pool already used.
func attrSets(pool []request) (distinct int, repeated float64) {
	seen := make(map[string]bool)
	for _, r := range pool {
		seen[fmt.Sprint(r.kind == kindMarginal, r.attrs)] = true
	}
	return len(seen), frac(float64(len(pool)-len(seen)), float64(len(pool)))
}

func (o *oracle) countRequest(rng *rand.Rand, set *setOracle, miss bool) request {
	vals := o.rowValues(rng.IntN(o.bounds[0]), set.attrs)
	if miss {
		for try := 0; try < 32; try++ {
			cand := make([]string, len(set.attrs))
			for i, a := range set.attrs {
				cand[i] = o.seen[a][rng.IntN(len(o.seen[a]))]
			}
			if set.count(strings.Join(cand, keySep), 0) == 0 {
				vals = cand
				break
			}
		}
	}
	expr := o.format(set.attrs, vals)
	r := request{kind: kindCount, attrs: set.names, expr: expr, path: "/v1/count?q=" + url.QueryEscape(expr)}
	key := strings.Join(vals, keySep)
	for e := range o.bounds {
		r.want = append(r.want, set.count(key, e))
	}
	return r
}

func (o *oracle) estimateRequest(rng *rand.Rand, attrs []int) request {
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = o.d.Attr(a).Name()
	}
	expr := o.format(attrs, o.rowValues(rng.IntN(o.bounds[0]), attrs))
	return request{kind: kindEstimate, attrs: names, expr: expr, path: "/v1/estimate?q=" + url.QueryEscape(expr)}
}

func (o *oracle) rowValues(row int, attrs []int) []string {
	vals := make([]string, len(attrs))
	for i, a := range attrs {
		vals[i] = o.d.Value(row, a)
	}
	return vals
}

func (o *oracle) format(attrs []int, vals []string) string {
	names := make([]string, len(attrs))
	assign := make(map[string]string, len(attrs))
	for i, a := range attrs {
		names[i] = o.d.Attr(a).Name()
		assign[names[i]] = vals[i]
	}
	return formatPattern(names, assign)
}

func randomSubset(rng *rand.Rand, from []int, k int) []int {
	sub := make([]int, 0, k)
	for _, i := range rng.Perm(len(from))[:k] {
		sub = append(sub, from[i])
	}
	sort.Ints(sub)
	return sub
}

// matches reports whether a 200 response body answers req correctly at
// any epoch in [lo, hi]: around a reload either generation is right.
func (o *oracle) matches(req *request, body []byte, lo, hi int) bool {
	switch req.kind {
	case kindCount:
		var r struct {
			Count int `json:"count"`
		}
		if json.Unmarshal(body, &r) != nil {
			return false
		}
		for e := lo; e <= hi; e++ {
			if r.Count == req.want[e] {
				return true
			}
		}
	case kindEstimate:
		var r struct {
			Estimate float64 `json:"estimate"`
		}
		if json.Unmarshal(body, &r) != nil {
			return false
		}
		for e := lo; e <= hi && e < len(req.est); e++ {
			if r.Estimate == req.est[e] {
				return true
			}
		}
	case kindMarginal:
		var r marginalResult
		if json.Unmarshal(body, &r) != nil {
			return false
		}
		for e := lo; e <= hi; e++ {
			if o.marginalMatches(req.set, r, e) {
				return true
			}
		}
	}
	return false
}

func (o *oracle) marginalMatches(set *setOracle, r marginalResult, epoch int) bool {
	if len(r.Patterns) != set.sizes[epoch] {
		return false
	}
	vals := make([]string, len(set.names))
	listed := make(map[string]bool, len(r.Patterns))
	for _, p := range r.Patterns {
		for i, n := range set.names {
			vals[i] = p.Pattern[n]
		}
		key := strings.Join(vals, keySep)
		if listed[key] || p.Count <= 0 || set.count(key, epoch) != p.Count {
			return false
		}
		listed[key] = true
	}
	return true
}
