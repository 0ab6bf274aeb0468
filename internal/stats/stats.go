// Package stats provides the small statistical toolkit used throughout
// R-Opus: percentiles over demand samples, run-length analysis of
// threshold exceedances, and summary statistics.
//
// The trace-based capacity-management algorithms in the paper consume
// only empirical statistics of the workload traces, so this package is
// deliberately simple and allocation-conscious: most callers pass slices
// of float64 demand samples taken straight from a trace.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Percentile returns the p-th percentile (0 <= p <= 100) of samples using
// linear interpolation between closest ranks (the "exclusive" method is
// not needed at trace sizes of thousands of samples; we use the common
// inclusive definition, matching the paper's use of "M-th percentile of
// the workload demands").
//
// The input slice is not modified.
func Percentile(samples []float64, p float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

// PercentileSorted is Percentile for data already sorted ascending.
// It performs no allocation and is the hot path for repeated queries.
func PercentileSorted(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	return percentileSorted(sorted, p), nil
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PercentileNearestRank returns the smallest sample value v such that at
// least p percent of the samples are <= v (the "nearest-rank, higher"
// definition). Unlike the interpolated Percentile, it guarantees that at
// most (100-p)% of samples are strictly greater than the result, which
// is what the portfolio translation needs to honour an Mdegr budget
// exactly on traces of any size.
func PercentileNearestRank(samples []float64, p float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	k := int(math.Ceil(p / 100 * float64(len(samples))))
	if k < 1 {
		k = 1
	}
	if k > len(samples) {
		k = len(samples)
	}
	// One order statistic does not need the whole order: select it in a
	// copy (the caller's trace keeps its order).
	scratch := make([]float64, len(samples))
	copy(scratch, samples)
	return selectKth(scratch, k-1), nil
}

// selectKth reorders s so that s[k] holds the value sort.Float64s would
// put there, and returns it: quickselect with a median-of-three pivot
// and a three-way partition (runs of equal samples, common in capped
// traces, cost one pass), expected O(n). A window that stops shrinking
// fast enough, or is small, is sorted outright, which bounds the worst
// case at the sort's.
func selectKth(s []float64, k int) float64 {
	// less is sort.Float64s's order: NaNs first.
	less := func(a, b float64) bool { return a < b || (a != a && b == b) }
	lo, hi := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); lo < hi; budget-- {
		if budget == 0 || hi-lo < 16 {
			sort.Float64s(s[lo : hi+1])
			break
		}
		a, b, c := s[lo], s[lo+(hi-lo)/2], s[hi]
		if less(b, a) {
			a, b = b, a
		}
		if less(c, b) {
			b = c
			if less(b, a) {
				b = a
			}
		}
		pivot := b
		// Invariant: s[lo:lt] < pivot, s[lt:i] == pivot, s[gt+1:hi+1] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch x := s[i]; {
			case less(x, pivot):
				s[lt], s[i] = x, s[lt]
				lt++
				i++
			case less(pivot, x):
				s[gt], s[i] = x, s[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return s[k]
		}
	}
	return s[k]
}

// Percentiles evaluates several percentiles with a single sort.
func Percentiles(samples []float64, ps []float64) ([]float64, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			return nil, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
		}
		out[i] = percentileSorted(sorted, p)
	}
	return out, nil
}

// Max returns the maximum of samples.
func Max(samples []float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrEmpty
	}
	m := samples[0]
	for _, v := range samples[1:] {
		if v > m {
			m = v
		}
	}
	return m, nil
}

// Min returns the minimum of samples.
func Min(samples []float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrEmpty
	}
	m := samples[0]
	for _, v := range samples[1:] {
		if v < m {
			m = v
		}
	}
	return m, nil
}

// Mean returns the arithmetic mean of samples.
func Mean(samples []float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples)), nil
}

// Summary bundles the descriptive statistics most reports need.
type Summary struct {
	Count  int
	Min    float64
	Max    float64
	Mean   float64
	StdDev float64
}

// Summarize computes a Summary in a single pass plus one for variance.
func Summarize(samples []float64) (Summary, error) {
	if len(samples) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{Count: len(samples), Min: samples[0], Max: samples[0]}
	sum := 0.0
	for _, v := range samples {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(len(samples))
	ss := 0.0
	for _, v := range samples {
		d := v - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(samples)))
	return s, nil
}

// Correlation returns the Pearson correlation coefficient of two
// equal-length sample series in [-1, 1]. Series with zero variance
// correlate 0 with everything (a convention that suits placement: a
// constant workload neither helps nor hurts statistical multiplexing).
func Correlation(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrEmpty
	}
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: series lengths %d and %d differ", len(a), len(b))
	}
	n := float64(len(a))
	var sumA, sumB float64
	for i := range a {
		sumA += a[i]
		sumB += b[i]
	}
	meanA, meanB := sumA/n, sumB/n
	var cov, varA, varB float64
	for i := range a {
		da, db := a[i]-meanA, b[i]-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0, nil
	}
	return cov / math.Sqrt(varA*varB), nil
}

// Run describes a maximal contiguous range of samples satisfying a
// predicate: indexes [Start, Start+Length).
type Run struct {
	Start  int
	Length int
}

// RunsAbove returns every maximal run of consecutive samples strictly
// greater than threshold, in order of appearance. The Tdegr analysis of
// the paper (section V.3) operates on these runs: a run longer than R
// observations violates the time-limited-degradation constraint.
func RunsAbove(samples []float64, threshold float64) []Run {
	var runs []Run
	start := -1
	for i, v := range samples {
		if v > threshold {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			runs = append(runs, Run{Start: start, Length: i - start})
			start = -1
		}
	}
	if start >= 0 {
		runs = append(runs, Run{Start: start, Length: len(samples) - start})
	}
	return runs
}

// LongestRunAbove returns the longest run above threshold, or a zero Run
// if no sample exceeds it.
func LongestRunAbove(samples []float64, threshold float64) Run {
	var best Run
	for _, r := range RunsAbove(samples, threshold) {
		if r.Length > best.Length {
			best = r
		}
	}
	return best
}

// MinInRange returns the minimum value within samples[start:start+length]
// and its absolute index. It is used by the Tdegr analysis to locate
// D_min_degr inside a degraded run.
func MinInRange(samples []float64, start, length int) (float64, int, error) {
	if start < 0 || length <= 0 || start+length > len(samples) {
		return 0, 0, fmt.Errorf("stats: range [%d,%d) out of bounds for %d samples",
			start, start+length, len(samples))
	}
	minV, minI := samples[start], start
	for i := start + 1; i < start+length; i++ {
		if samples[i] < minV {
			minV, minI = samples[i], i
		}
	}
	return minV, minI, nil
}
