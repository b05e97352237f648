package core

import (
	"math"

	"pcbl/internal/lattice"
	"pcbl/internal/workpool"
)

// Estimator is anything that can estimate pattern counts from a dense value
// slice: labels (the paper's contribution), the sampling baseline and the
// PostgreSQL-statistics baseline all implement it, so they can be scored by
// the same evaluation machinery.
type Estimator interface {
	// EstimateRow estimates the count of the pattern whose constrained
	// attributes are attrs and whose value identifiers occupy the
	// corresponding slots of vals. Implementations must be safe for
	// concurrent use.
	EstimateRow(vals []uint16, attrs lattice.AttrSet) float64
}

// AbsError returns Err(l, p) = |c_D(p) − Est(p, l)| (Definition 2.13).
func AbsError(trueCount int, est float64) float64 {
	return math.Abs(float64(trueCount) - est)
}

// QError returns the q-error of an estimate: max(c/est, est/c) (§II-B,
// following Moerkotte et al.), with both quantities floored at 1 — the
// standard convention of the selectivity-estimation literature the paper
// cites, and the generalization of the paper's own "we set est(p) = 1
// whenever the actual estimation was 0" rule. Flooring matters: counts are
// integers but Definition 2.11 estimates are fractional, and on sparse
// high-dimensional data (most tuples distinct) an unfloored q-error of a
// count-1 pattern estimated at 10⁻¹² would be 10¹², drowning the metric;
// the paper's reported q-error magnitudes (means of 1.8–3.9 on exactly such
// data) are only attainable under the floored convention.
func QError(trueCount int, est float64) float64 {
	c := float64(trueCount)
	if c < 1 {
		c = 1
	}
	if est < 1 {
		est = 1
	}
	if c > est {
		return c / est
	}
	return est / c
}

// EvalResult aggregates a label's estimation error over a pattern set. The
// paper reports the maximum absolute error as the headline metric
// (Definition 2.15 uses the maximum), the mean in parentheses (Fig 4), the
// standard deviation of the absolute errors (Fig 1), and mean/max q-error
// (Fig 5).
type EvalResult struct {
	N        int     // patterns evaluated
	MaxAbs   float64 // max |c − est|
	MeanAbs  float64 // mean |c − est|
	StdAbs   float64 // population standard deviation of |c − est|
	MaxQ     float64 // max q-error
	MeanQ    float64 // mean q-error
	WorstIdx int     // index (in ps) of the pattern attaining MaxAbs
}

// MaxAbsFraction returns MaxAbs as a fraction of total (typically |D|),
// matching the paper's presentation of max error as a fraction of data size.
func (r EvalResult) MaxAbsFraction(total int) float64 {
	if total == 0 {
		return 0
	}
	return r.MaxAbs / float64(total)
}

// EvalOptions controls evaluation.
type EvalOptions struct {
	// Workers is the parallelism for exact evaluation; runtime.NumCPU()
	// when zero, 1 to force sequential.
	Workers int
}

// Evaluate scores label l against every pattern in ps exactly, in parallel,
// and returns the full error aggregate.
func Evaluate(l Estimator, ps *PatternSet, opts EvalOptions) EvalResult {
	n := ps.Len()
	if n == 0 {
		return EvalResult{}
	}
	type partial struct {
		n             int
		sumAbs, sumSq float64
		sumQ          float64
		maxAbs, maxQ  float64
		worst         int
	}
	parts := make([]partial, workpool.Resolve(opts.Workers, n))
	workpool.RunChunks(n, len(parts), func(w, lo, hi int) {
		p := partial{worst: lo}
		for i := lo; i < hi; i++ {
			est := l.EstimateRow(ps.Row(i), ps.Attrs(i))
			c := ps.Count(i)
			abs := AbsError(c, est)
			q := QError(c, est)
			p.n++
			p.sumAbs += abs
			p.sumSq += abs * abs
			p.sumQ += q
			if abs > p.maxAbs {
				p.maxAbs = abs
				p.worst = i
			}
			if q > p.maxQ {
				p.maxQ = q
			}
		}
		parts[w] = p
	})

	var res EvalResult
	var sumAbs, sumSq, sumQ float64
	first := true
	for _, p := range parts {
		if p.n == 0 {
			continue
		}
		res.N += p.n
		sumAbs += p.sumAbs
		sumSq += p.sumSq
		sumQ += p.sumQ
		if first || p.maxAbs > res.MaxAbs {
			res.MaxAbs = p.maxAbs
			res.WorstIdx = p.worst
			first = false
		}
		if p.maxQ > res.MaxQ {
			res.MaxQ = p.maxQ
		}
	}
	if res.N > 0 {
		res.MeanAbs = sumAbs / float64(res.N)
		res.MeanQ = sumQ / float64(res.N)
		variance := sumSq/float64(res.N) - res.MeanAbs*res.MeanAbs
		if variance > 0 {
			res.StdAbs = math.Sqrt(variance)
		}
	}
	return res
}

// MaxErrOptions controls MaxAbsError, the evaluation primitive the label
// search uses (only the maximum matters for the objective of Definition
// 2.15).
type MaxErrOptions struct {
	// Sorted enables the paper's early-termination optimization (§IV-C):
	// the pattern set must be sorted by non-increasing count; the scan
	// stops once the next pattern's count falls below the running maximum
	// error. The paper applies this unconditionally, but it is not exact:
	// an under-estimate can end the scan while a later, lower-count pattern
	// is over-estimated by more (TestSortedEvalIsNotExact pins a 9-row
	// example reporting 10/9 where the exhaustive scan finds 11/9). The
	// result never exceeds the exhaustive maximum. The search's agreement
	// test checks one BlueNile dataset at bounds 10 and 40.
	Sorted bool
	// Workers is the parallelism for the unsorted exact path;
	// runtime.NumCPU() when zero.
	Workers int
}

// MaxAbsError returns Err(l, P) = max_{p∈P} |c_D(p) − Est(p, l)| and the
// number of patterns actually examined (less than ps.Len() when the sorted
// scan stopped early). Without the sorted scan it is Evaluate's maximum.
func MaxAbsError(l Estimator, ps *PatternSet, opts MaxErrOptions) (maxErr float64, scanned int) {
	n := ps.Len()
	if opts.Sorted && ps.Sorted() {
		for i := 0; i < n; i++ {
			if float64(ps.Count(i)) < maxErr {
				return maxErr, i
			}
			est := l.EstimateRow(ps.Row(i), ps.Attrs(i))
			if abs := AbsError(ps.Count(i), est); abs > maxErr {
				maxErr = abs
			}
		}
		return maxErr, n
	}
	return Evaluate(l, ps, EvalOptions{Workers: opts.Workers}).MaxAbs, n
}
