// Package stats implements the statistical machinery behind Bifrost's
// verdict checks: Welch's two-sample t-test (the `compare` check), Wald's
// sequential probability ratio test (the `sequential` A/B gate),
// and E-Divisive means change-point detection with permutation
// significance (the `changepoint` check).
//
// Everything here is pure math on float64s — no I/O, no clocks — so the
// dsl and metrics packages can compose it freely and tests can pin exact
// numerical behavior.
package stats

import (
	"fmt"
	"math"
)

// TTest is the result of a two-sample Welch t-test.
type TTest struct {
	// T is the test statistic (mean1 − mean2 over the pooled standard
	// error). Positive means sample 1's mean is larger.
	T float64
	// DF is the Welch–Satterthwaite effective degrees of freedom.
	DF float64
	// P is the one-sided p-value for the alternative "mean1 > mean2":
	// the probability of observing a statistic at least as large as T
	// under the null hypothesis of equal means.
	P float64
}

// Welch computes Welch's unequal-variance t-test from summary statistics
// of two samples: sizes n1/n2, means, and (unbiased) sample variances.
// Both samples need at least two observations and a finite, non-negative
// variance; otherwise an error is returned.
func Welch(n1 int, mean1, var1 float64, n2 int, mean2, var2 float64) (TTest, error) {
	if n1 < 2 || n2 < 2 {
		return TTest{}, fmt.Errorf("stats: welch needs ≥ 2 samples per arm (got %d, %d)", n1, n2)
	}
	if var1 < 0 || var2 < 0 || math.IsNaN(var1) || math.IsNaN(var2) {
		return TTest{}, fmt.Errorf("stats: welch needs non-negative variances (got %v, %v)", var1, var2)
	}
	se1 := var1 / float64(n1)
	se2 := var2 / float64(n2)
	se := se1 + se2
	if se == 0 {
		// Both samples are constant. Equal means → no evidence either
		// way (p = 0.5); unequal constant means → certain difference.
		t := TTest{DF: float64(n1 + n2 - 2)}
		switch {
		case mean1 > mean2:
			t.T, t.P = math.Inf(1), 0
		case mean1 < mean2:
			t.T, t.P = math.Inf(-1), 1
		default:
			t.P = 0.5
		}
		return t, nil
	}
	t := (mean1 - mean2) / math.Sqrt(se)
	// Welch–Satterthwaite approximation.
	df := se * se / (se1*se1/float64(n1-1) + se2*se2/float64(n2-1))
	return TTest{T: t, DF: df, P: 1 - StudentTCDF(t, df)}, nil
}

// StudentTCDF is the cumulative distribution function of Student's t
// distribution with df degrees of freedom, evaluated at t.
func StudentTCDF(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	// P(T ≤ t) via the regularized incomplete beta function:
	// for t ≥ 0, P = 1 − ½·I_x(df/2, ½) with x = df/(df+t²).
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t >= 0 {
		return 1 - p
	}
	return p
}

// RegIncBeta is the regularized incomplete beta function I_x(a, b),
// computed with the continued-fraction expansion (Numerical Recipes §6.4,
// modified Lentz's method).
func RegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	// The continued fraction converges fastest for x < (a+1)/(a+b+2);
	// otherwise use the symmetry I_x(a,b) = 1 − I_{1−x}(b,a).
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta function
// by the modified Lentz's method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 200
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
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
