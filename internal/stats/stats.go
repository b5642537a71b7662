// Package stats provides the small statistical toolkit used by the
// experiment harnesses: streaming mean/variance, percentiles and
// streaming quantiles. The paper reports averages over 3 repeated runs
// (training experiments) and 500 trials (load-distribution simulation)
// with standard deviations; this package computes exactly those.
package stats

import (
	"math"
	"sort"
)

// Running accumulates a stream of float64 observations using Welford's
// algorithm, giving numerically stable mean and variance without storing
// the samples.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the arithmetic mean, or 0 for an empty accumulator.
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest observation, or 0 for an empty accumulator.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 for an empty accumulator.
func (r *Running) Max() float64 { return r.max }

// Variance returns the sample variance (n-1 denominator); 0 when n < 2.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Merge combines another accumulator into r (parallel Welford merge),
// so per-goroutine accumulators can be reduced without locking.
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	n := r.n + o.n
	d := o.mean - r.mean
	mean := r.mean + d*float64(o.n)/float64(n)
	m2 := r.m2 + o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n, r.mean, r.m2 = n, mean, m2
}

// Mean returns the arithmetic mean of xs; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs; 0 when len < 2.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
