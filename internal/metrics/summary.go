package metrics

import (
	"math"
	"sort"
	"time"

	"bifrost/internal/sketch"
)

// DefaultSummaryBucket is the width of the per-series pre-aggregation
// buckets. Each series keeps, next to its raw sample ring, a ring of
// per-bucket summaries (count/sum/sum-of-squares/min/max plus reset-aware
// counter increase); window queries combine whole buckets and only touch
// raw samples in the partial buckets at the window edges, so a wide
// window query does not rescan every raw sample on the hot path.
const DefaultSummaryBucket = time.Second

// aggStats summarizes the samples of one contiguous chronological segment
// of a series. Segments merge associatively (bucket summaries and raw
// edge scans combine into one window aggregate). The second moment is
// kept as the sum of squared deviations from the running mean (Welford's
// algorithm, merged with Chan's parallel update) rather than a raw
// Σv² — the naive form catastrophically cancels for large-magnitude,
// small-spread series and would turn floating-point noise into fake
// variance (or fake certainty) in the compare check's t-test.
type aggStats struct {
	count  int
	sum    float64
	mean   float64
	m2     float64 // Σ (v − mean)², Welford/Chan
	min    float64
	max    float64
	firstV float64
	lastV  float64
	// inc is the reset-aware counter increase accumulated between
	// consecutive samples *within* the segment; the step between two
	// merged segments is added by absorb.
	inc float64
}

// observe folds one sample (chronologically after all previous ones) into
// the segment.
func (a *aggStats) observe(v float64) {
	if a.count == 0 {
		a.min, a.max, a.firstV = v, v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
		// Counter-increase semantics as in counterIncrease: a decrease is
		// a reset and counts from zero.
		if v >= a.lastV {
			a.inc += v - a.lastV
		} else {
			a.inc += v
		}
	}
	a.count++
	a.sum += v
	delta := v - a.mean
	a.mean += delta / float64(a.count)
	a.m2 += delta * (v - a.mean)
	a.lastV = v
}

// absorb folds a chronologically later segment b into a.
func (a *aggStats) absorb(b *aggStats) {
	if b.count == 0 {
		return
	}
	if a.count == 0 {
		*a = *b
		return
	}
	// The boundary step between the segments, then b's internal steps.
	if b.firstV >= a.lastV {
		a.inc += b.firstV - a.lastV + b.inc
	} else {
		a.inc += b.firstV + b.inc
	}
	na, nb := float64(a.count), float64(b.count)
	delta := b.mean - a.mean
	a.m2 += b.m2 + delta*delta*na*nb/(na+nb)
	a.mean += delta * nb / (na + nb)
	a.count += b.count
	a.sum += b.sum
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.lastV = b.lastV
}

// bucket is one pre-aggregated summary covering [start, start+width) in
// unix nanoseconds.
type bucket struct {
	start  int64
	firstT int64 // unix nanos of the bucket's first sample
	lastT  int64 // unix nanos of the bucket's last sample
	stats  aggStats
	// width and sk are only set on federated (remote) buckets: local
	// buckets all share the store's bucketWidth and keep raw samples for
	// quantiles, while remote buckets carry their shipping width and the
	// replica's mergeable quantile sketch (see federate.go).
	width int64
	sk    *sketch.Sketch
}

// summarize folds a freshly appended sample into the series' bucket ring.
// Called with the store lock held, after the raw append.
func (sr *series) summarize(sm Sample, width time.Duration, maxBuckets int) {
	if !sr.ordered {
		return // summaries are only maintained for in-order series
	}
	w := int64(width)
	start := floorAlign(sm.T.UnixNano(), w)
	n := sr.blen()
	if n == 0 || sr.bucketAt(n-1).start != start {
		if n > 0 && sr.bucketAt(n-1).start > start {
			// An out-of-order bucket boundary; raw append already cleared
			// sr.ordered for out-of-order samples, but equal-timestamp
			// corner cases land here. Give up on summaries for the series.
			sr.ordered = false
			return
		}
		sr.appendBucket(bucket{start: start, firstT: sm.T.UnixNano()}, maxBuckets)
		n = sr.blen()
	}
	b := sr.bucketAt(n - 1)
	b.stats.observe(sm.V)
	b.lastT = sm.T.UnixNano()
}

func (sr *series) appendBucket(b bucket, maxBuckets int) {
	if len(sr.buckets) < maxBuckets {
		sr.buckets = append(sr.buckets, b)
		return
	}
	sr.buckets[sr.bstart] = b
	sr.bstart = (sr.bstart + 1) % len(sr.buckets)
}

// bucketAt returns the i-th oldest bucket.
func (sr *series) bucketAt(i int) *bucket {
	return &sr.buckets[(sr.bstart+i)%len(sr.buckets)]
}

func (sr *series) blen() int { return len(sr.buckets) }

// searchTime returns the index of the first retained sample with T ≥ t,
// assuming the series is in chronological order.
func (sr *series) searchTime(t time.Time) int {
	return sort.Search(sr.len(), func(i int) bool {
		return !sr.at(i).T.Before(t)
	})
}

// scanStats aggregates the raw samples with from < T ≤ to.
func (sr *series) scanStats(from, to time.Time) aggStats {
	var a aggStats
	if sr.ordered {
		hi := sr.searchTime(to.Add(time.Nanosecond))
		for i := sr.searchTime(from.Add(time.Nanosecond)); i < hi; i++ {
			a.observe(sr.at(i).V)
		}
		return a
	}
	for i := 0; i < sr.len(); i++ {
		sm := sr.at(i)
		if sm.T.After(from) && !sm.T.After(to) {
			a.observe(sm.V)
		}
	}
	return a
}

// windowStats aggregates the samples with from < T ≤ to, combining whole
// pre-aggregated buckets with raw scans of the partial edge buckets. It
// falls back to a raw scan whenever the summaries cannot reproduce the
// raw result exactly (out-of-order series, summaries disabled, or buckets
// that outlived their evicted raw samples).
func (sr *series) windowStats(from, to time.Time, width time.Duration) aggStats {
	if sr.remote {
		return sr.remoteWindowStats(from, to)
	}
	if !sr.ordered || width <= 0 || sr.blen() == 0 || sr.len() == 0 {
		return sr.scanStats(from, to)
	}
	w := int64(width)
	fromN, toN := from.UnixNano(), to.UnixNano()
	t0 := sr.at(0).T.UnixNano() // oldest retained raw sample

	// Full buckets must start after the window opens and after the oldest
	// retained raw sample (a bucket whose first sample was evicted from
	// the raw ring would over-count), and end at or before the window
	// close.
	lo := fromN + 1
	if t0 > lo {
		lo = t0
	}
	leftBound := ceilAlign(lo, w)
	coveredEnd := floorAlign(toN+1, w)
	if leftBound >= coveredEnd {
		return sr.scanStats(from, to)
	}
	// The bucket ring must reach back to leftBound; if older buckets were
	// evicted while their raw samples survive, fall back.
	if sr.bucketAt(0).start > leftBound {
		return sr.scanStats(from, to)
	}

	out := sr.scanStats(from, time.Unix(0, leftBound-1)) // raw left edge: from < T < leftBound
	n := sr.blen()
	first := sort.Search(n, func(i int) bool { return sr.bucketAt(i).start >= leftBound })
	for i := first; i < n; i++ {
		b := sr.bucketAt(i)
		if b.start+w > coveredEnd {
			break
		}
		out.absorb(&b.stats)
	}
	// Raw right edge: coveredEnd ≤ T ≤ to.
	right := sr.scanStats(time.Unix(0, coveredEnd-1), to)
	out.absorb(&right)
	return out
}

func floorAlign(n, w int64) int64 {
	q := n / w
	if n%w < 0 {
		q--
	}
	return q * w
}

func ceilAlign(n, w int64) int64 {
	f := floorAlign(n, w)
	if f == n {
		return n
	}
	return f + w
}

// Moments are the pooled first and second moments of every sample in a
// query window: what a two-sample comparison (Welch's t-test) needs from
// each population. Variance is the unbiased sample variance; it is zero
// when fewer than two samples exist.
type Moments struct {
	Count    int     `json:"count"`
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
}

func (a aggStats) moments() Moments {
	m := Moments{Count: a.count, Min: a.min, Max: a.max}
	if a.count == 0 {
		return m
	}
	m.Mean = a.mean
	if a.count > 1 && a.m2 > 0 {
		m.Variance = a.m2 / float64(a.count-1)
	}
	return m
}

// windowStatsPerSeries collects each matching series' window aggregate,
// skipping series with no samples in the window.
func (s *Store) windowStatsPerSeries(name string, selector []LabelMatch, d time.Duration, at time.Time) []aggStats {
	matched := s.selectSeries(name, selector)
	out := make([]aggStats, 0, len(matched))
	s.mu.RLock()
	for _, sr := range matched {
		if a := sr.windowStats(at.Add(-d), at, s.bucketWidth); a.count > 0 {
			out = append(out, a)
		}
	}
	s.mu.RUnlock()
	return out
}

// WindowMoments pools the moments of every sample in (at−d, at] across the
// series matching name and selector. It returns ErrNoData when the window
// is empty.
func (s *Store) WindowMoments(name string, selector []LabelMatch, d time.Duration, at time.Time) (Moments, error) {
	per := s.windowStatsPerSeries(name, selector, d, at)
	if len(per) == 0 {
		return Moments{}, ErrNoData
	}
	pooled := per[0]
	for i := range per[1:] {
		// Pooling moments across series needs no chronological order; the
		// inc field of the pooled result is meaningless and unused here.
		pooled.absorb(&per[1+i])
	}
	return pooled.moments(), nil
}

// exactQuantileThreshold is the pooled window size up to which quantile
// queries sort exactly; larger windows stream through a sketch instead of
// sorting a copy of every sample.
const exactQuantileThreshold = 256

// WindowAggregate evaluates one range function (rate, increase, the
// *_over_time family, quantile_over_time with quantile q) over the window
// (at−d, at]. Decomposable aggregations are answered from the per-series
// bucket summaries; quantiles stream the window's raw samples through a
// sketch once the pooled sample count exceeds exactQuantileThreshold.
func (s *Store) WindowAggregate(fn string, q float64, name string, selector []LabelMatch, d time.Duration, at time.Time) (float64, error) {
	if fn == "quantile_over_time" {
		return s.windowQuantile(name, selector, q, d, at)
	}
	per := s.windowStatsPerSeries(name, selector, d, at)
	if len(per) == 0 {
		return 0, ErrNoData
	}
	switch fn {
	case "rate", "increase":
		var total float64
		for _, a := range per {
			total += a.inc
		}
		if fn == "rate" {
			secs := d.Seconds()
			if secs <= 0 {
				return 0, errZeroWindow
			}
			return total / secs, nil
		}
		return total, nil
	}
	pooled := per[0]
	for i := range per[1:] {
		pooled.absorb(&per[1+i])
	}
	switch fn {
	case "avg_over_time":
		return pooled.sum / float64(pooled.count), nil
	case "min_over_time":
		return pooled.min, nil
	case "max_over_time":
		return pooled.max, nil
	case "sum_over_time":
		return pooled.sum, nil
	case "count_over_time":
		return float64(pooled.count), nil
	case "stddev_over_time":
		return math.Sqrt(pooled.populationVariance()), nil
	case "var_over_time":
		return pooled.populationVariance(), nil
	}
	return 0, errUnknownRangeFn(fn)
}

// populationVariance divides by n, matching Prometheus's
// stddev_over_time/stdvar_over_time semantics — unlike Moments.Variance,
// which is the unbiased (n−1) sample variance Welch's t-test needs.
func (a aggStats) populationVariance() float64 {
	if a.count == 0 || a.m2 <= 0 {
		return 0
	}
	return a.m2 / float64(a.count)
}

// windowQuantile computes quantile_over_time. Small purely local windows
// sort a copy and answer exactly. Larger ones, and any window with a
// federated series, answer from one sketch: the replica sketches in the
// window merged, plus the local raw samples, so the quantile carries the
// sketch's relative-error guarantee.
func (s *Store) windowQuantile(name string, selector []LabelMatch, q float64, d time.Duration, at time.Time) (float64, error) {
	matched := s.selectSeries(name, selector)
	from, to := at.Add(-d), at
	var raw []float64
	var sketches []*sketch.Sketch
	s.mu.RLock()
	for _, sr := range matched {
		if sr.remote {
			sketches = append(sketches, sr.remoteSketches(from, to)...)
			continue
		}
		for _, sm := range sr.window(from, to) {
			raw = append(raw, sm.V)
		}
	}
	s.mu.RUnlock()
	if len(sketches) == 0 && len(raw) <= exactQuantileThreshold {
		if len(raw) == 0 {
			return 0, ErrNoData
		}
		return quantile(raw, q), nil
	}
	alpha := sketch.DefaultAlpha
	if len(sketches) > 0 {
		alpha = sketches[0].Alpha()
	}
	merged := sketch.New(alpha)
	for _, sk := range sketches {
		if err := merged.Merge(sk); err != nil {
			return 0, err
		}
	}
	for _, v := range raw {
		merged.Add(v)
	}
	return merged.Quantile(q), nil
}
