// Package stats provides the estimators the experiment harness reports:
// moment summaries with normal confidence intervals for real-valued
// observations, and Wilson score intervals for the coverage proportions
// that dominate the paper's evaluation.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadZ reports a non-positive z-score.
var ErrBadZ = errors.New("stats: z must be positive")

// Z95 is the two-sided 95% normal quantile.
const Z95 = 1.959963984540054

// Summary holds the moments of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n−1 denominator); 0 when N < 2
	Min      float64
	Max      float64
}

// Summarize computes the sample summary in one pass (Welford's update,
// stable for long near-constant streams).
func Summarize(xs []float64) Summary {
	var s Summary
	var m2 float64
	for _, x := range xs {
		s.N++
		if s.N == 1 {
			s.Mean, s.Min, s.Max = x, x, x
			continue
		}
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		delta := x - s.Mean
		s.Mean += delta / float64(s.N)
		m2 += delta * (x - s.Mean)
	}
	if s.N > 1 {
		s.Variance = m2 / float64(s.N-1)
	}
	return s
}

// StdDev returns the sample standard deviation.
func (s Summary) StdDev() float64 { return math.Sqrt(s.Variance) }

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.3g min=%.6g max=%.6g",
		s.N, s.Mean, s.StdDev(), s.Min, s.Max)
}

// Proportion returns successes/n, or 0 when n == 0.
func Proportion(successes, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(successes) / float64(n)
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion at the given z (e.g. Z95). Unlike the Wald interval it
// behaves sensibly at proportions near 0 and 1 — exactly where full-view
// coverage experiments live.
func WilsonInterval(successes, n int, z float64) (lo, hi float64, err error) {
	if !(z > 0) || math.IsInf(z, 0) {
		return 0, 0, fmt.Errorf("%w: got %v", ErrBadZ, z)
	}
	if n <= 0 {
		return 0, 1, nil
	}
	if successes < 0 {
		successes = 0
	}
	if successes > n {
		successes = n
	}
	p := float64(successes) / float64(n)
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}

// Counter accumulates Bernoulli observations.
type Counter struct {
	successes int
	total     int
}

// Add records one observation.
func (c *Counter) Add(success bool) {
	c.total++
	if success {
		c.successes++
	}
}

// AddN records n observations with the given number of successes.
func (c *Counter) AddN(successes, n int) {
	c.successes += successes
	c.total += n
}

// Successes returns the success count.
func (c *Counter) Successes() int { return c.successes }

// Fraction returns the empirical success proportion.
func (c *Counter) Fraction() float64 { return Proportion(c.successes, c.total) }

// Wilson95 returns the 95% Wilson interval for the proportion.
func (c *Counter) Wilson95() (lo, hi float64) {
	lo, hi, _ = WilsonInterval(c.successes, c.total, Z95)
	return lo, hi
}

// String implements fmt.Stringer.
func (c *Counter) String() string {
	lo, hi := c.Wilson95()
	return fmt.Sprintf("%d/%d = %.4f [%.4f, %.4f]", c.successes, c.total, c.Fraction(), lo, hi)
}
