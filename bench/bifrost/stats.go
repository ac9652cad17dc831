package bifrost

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted values, interpolating linearly
// between the two closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

// sortedIn converts durations to the given unit and sorts them.
func sortedIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// Spread is a metric's distribution over repeated runs.
type Spread struct {
	Median float64
	// IQR is the distance between the first and third quartile, computed
	// like Python's statistics.quantiles(values, n=4).
	IQR float64
	// CV is the sample standard deviation over the mean.
	CV float64
}

// SpreadOf summarizes repeated measurements of one metric.
func SpreadOf(vals []float64) Spread {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	var sp Spread
	if len(s) == 0 {
		return sp
	}
	sp.Median = quantile(s, 0.5)
	if len(s) >= 2 {
		q := quartiles(s)
		sp.IQR = q[2] - q[0]
		var sum, ss float64
		for _, v := range s {
			sum += v
		}
		mean := sum / float64(len(s))
		for _, v := range s {
			ss += (v - mean) * (v - mean)
		}
		if mean != 0 {
			sp.CV = math.Sqrt(ss/float64(len(s)-1)) / math.Abs(mean)
		}
	}
	return sp
}

// quartiles reproduces Python's statistics.quantiles(data, n=4) with its
// default "exclusive" method, for len(sorted) >= 2.
func quartiles(sorted []float64) [3]float64 {
	const n = 4
	ld := len(sorted)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
	}
	return out
}
