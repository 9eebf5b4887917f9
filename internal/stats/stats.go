// Package stats provides the statistical machinery the paper uses to
// report its measurements: sample means, 95% confidence intervals from the
// t-distribution, and the no-failure confidence bound of Section 5
// (p < 1 - 0.95^(1/n)).
//
// Everything is implemented from scratch on the standard library; the
// inverse t-distribution comes from a bisection over the CDF, which in turn
// uses the regularized incomplete beta function.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample accumulates observations and reports summary statistics.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// AddDuration appends a time observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CI95 returns the half-width of the 95% confidence interval for the mean
// using the t-distribution with n-1 degrees of freedom, matching the
// paper's reporting convention ("ninety-five percent confidence intervals
// (t-distribution) are also calculated for all measurements").
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	t := TQuantile(0.975, float64(n-1))
	return t * s.StdDev() / math.Sqrt(float64(n))
}

// MeanCI returns "mean ± ci" formatted to two decimals, the paper's table
// cell format.
func (s *Sample) MeanCI() string {
	return fmt.Sprintf("%.2f ± %.2f", s.Mean(), s.CI95())
}

// Min returns the smallest observation (0 for empty samples).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation (0 for empty samples).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, s.xs)
	sort.Float64s(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// NoFailureBound returns the 95%-confidence upper bound on the per-run
// failure probability given that no failures were observed in n runs:
// p < 1 - 0.95^(1/n). With the paper's n = 734 SIGINT/SIGSTOP runs this
// evaluates to about 7e-5, i.e. "less than 0.01% of all SIGINT/SIGSTOP
// failures will be unrecoverable" (Section 5).
func NoFailureBound(n int) float64 {
	if n <= 0 {
		return 1
	}
	return 1 - math.Pow(0.95, 1/float64(n))
}

// TQuantile returns the p-quantile of Student's t-distribution with nu
// degrees of freedom, found by bisection over TCDF.
func TQuantile(p, nu float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	lo, hi := -1000.0, 1000.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, nu) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TCDF returns the CDF of Student's t-distribution with nu degrees of
// freedom, via the regularized incomplete beta function:
// P(T <= t) = 1 - I_{nu/(nu+t^2)}(nu/2, 1/2)/2 for t >= 0.
func TCDF(t, nu float64) float64 {
	if nu <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := nu / (nu + t*t)
	tail := RegIncBeta(nu/2, 0.5, x) / 2
	if t > 0 {
		return 1 - tail
	}
	return tail
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// with the continued-fraction expansion (Numerical Recipes betacf form).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for RegIncBeta using Lentz's
// algorithm.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-14
		tiny    = 1e-30
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
