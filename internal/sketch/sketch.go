// Package sketch implements a mergeable quantile sketch in the DDSketch
// family (Masson, Rim, Lee: "DDSketch: a fast and fully-mergeable quantile
// sketch with relative-error guarantees", VLDB 2019): values are counted
// in logarithmically sized buckets, so any quantile estimate is within a
// configurable *relative value error* α of a true sample value at that
// rank, regardless of the data's scale or distribution.
//
// # Error model
//
// For a sketch built with accuracy α, Quantile(q) returns an estimate x̂
// such that |x̂ − x_q| ≤ α·|x_q|, where x_q is the empirical q-quantile
// (the value of rank ⌈q·n⌉ among the n inserted values). The guarantee is
// on the value axis, not the rank axis: a p99 latency of 250ms is reported
// in [250·(1−α), 250·(1+α)] ms. The default α of 1% means fleet p99s are
// exact enough for verdict checks while a sketch stays a few KB.
//
// Two properties make the sketch the right federation unit:
//
//   - Merging is lossless: Merge adds bucket counts, and the merged sketch
//     is byte-identical to the sketch of the concatenated sample streams.
//     N proxy replicas can sketch locally and ship summaries; the
//     federating store's merged quantiles carry the same α guarantee as if
//     every raw sample had been centralized.
//   - Insertion and merge are O(1) per bucket; the bucket count is bounded
//     (maxBuckets, default 2048), with the lowest buckets collapsing into
//     one when the bound is hit — the upper quantiles live testing cares
//     about (p90/p99) keep their guarantee; only quantiles that fall into
//     the collapsed low tail degrade.
//
// A sketch answers every quantile after the fact and merges across
// replicas — the property the fleet metrics federation is built on.
package sketch

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// DefaultAlpha is the relative accuracy used across the Bifrost federation
// layer: quantile estimates within 1% of a true sample value.
const DefaultAlpha = 0.01

// DefaultMaxBuckets bounds a sketch's memory. At α = 1% each bucket covers
// a ≈2% value band, so 2048 buckets span a dynamic range far beyond 2^40 —
// collapse only triggers on pathological inputs.
const DefaultMaxBuckets = 2048

// Sketch is a mergeable quantile sketch. The zero value is not usable;
// create sketches with New or FromSummary. A Sketch is not safe for
// concurrent use; callers synchronize (the federation agent folds samples
// under its own lock).
type Sketch struct {
	alpha      float64
	gamma      float64
	logGamma   float64
	maxBuckets int

	// pos and neg count values by logarithmic index: pos[i] counts values
	// in (γ^(i−1), γ^i], neg mirrors for negative magnitudes. zero counts
	// values whose magnitude is below the smallest representable bucket.
	pos  map[int]uint64
	neg  map[int]uint64
	zero uint64

	count     uint64
	sum       float64
	min, max  float64
	collapsed bool
}

// minIndexable is the smallest magnitude that gets its own bucket; values
// below it (including exact zeros) land in the zero bucket. Latencies and
// counter increments are far above this.
const minIndexable = 1e-9

// Option configures a Sketch.
type Option func(*Sketch)

// WithMaxBuckets bounds the per-sign bucket maps to n buckets each
// (default DefaultMaxBuckets). When a map would exceed the bound its
// lowest-index buckets collapse into one, preserving upper quantiles.
func WithMaxBuckets(n int) Option {
	return func(s *Sketch) {
		if n > 1 {
			s.maxBuckets = n
		}
	}
}

// New creates an empty sketch with relative accuracy alpha in (0, 1).
func New(alpha float64, opts ...Option) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		alpha = DefaultAlpha
	}
	s := &Sketch{
		alpha:      alpha,
		gamma:      (1 + alpha) / (1 - alpha),
		maxBuckets: DefaultMaxBuckets,
		pos:        make(map[int]uint64, 64),
		neg:        make(map[int]uint64),
		min:        math.Inf(1),
		max:        math.Inf(-1),
	}
	s.logGamma = math.Log(s.gamma)
	for _, o := range opts {
		o(s)
	}
	return s
}

// Alpha returns the sketch's relative accuracy.
func (s *Sketch) Alpha() float64 { return s.alpha }

// Count returns the number of inserted values.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the sum of inserted values.
func (s *Sketch) Sum() float64 { return s.sum }

// Min returns the smallest inserted value (+Inf when empty).
func (s *Sketch) Min() float64 { return s.min }

// Max returns the largest inserted value (−Inf when empty).
func (s *Sketch) Max() float64 { return s.max }

// Collapsed reports whether low buckets have been collapsed (the low-tail
// guarantee is degraded; upper quantiles are unaffected).
func (s *Sketch) Collapsed() bool { return s.collapsed }

// index maps a positive magnitude to its logarithmic bucket index.
func (s *Sketch) index(v float64) int {
	return int(math.Ceil(math.Log(v) / s.logGamma))
}

// value maps a bucket index back to the bucket's midpoint estimate
// 2γ^i/(γ+1), the value within α of everything the bucket counted.
func (s *Sketch) value(i int) float64 {
	return 2 * math.Exp(float64(i)*s.logGamma) / (s.gamma + 1)
}

// Add inserts one value. NaN is ignored.
func (s *Sketch) Add(v float64) { s.AddN(v, 1) }

// AddN inserts a value n times.
func (s *Sketch) AddN(v float64, n uint64) {
	if n == 0 || math.IsNaN(v) {
		return
	}
	switch {
	case v > minIndexable:
		s.bump(s.pos, s.index(v), n)
	case v < -minIndexable:
		s.bump(s.neg, s.index(-v), n)
	default:
		s.zero += n
	}
	s.count += n
	s.sum += v * float64(n)
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

func (s *Sketch) bump(m map[int]uint64, idx int, n uint64) {
	m[idx] += n
	if len(m) > s.maxBuckets {
		collapseLowest(m)
		s.collapsed = true
	}
}

// collapseLowest folds the two lowest-index buckets together, preserving
// the counts (and therefore every rank) while shrinking the map by one.
// Estimates for the collapsed tail shift toward the surviving bucket's
// value; upper quantiles are untouched.
func collapseLowest(m map[int]uint64) {
	lo1, lo2 := math.MaxInt, math.MaxInt
	for i := range m {
		if i < lo1 {
			lo1, lo2 = i, lo1
		} else if i < lo2 {
			lo2 = i
		}
	}
	m[lo2] += m[lo1]
	delete(m, lo1)
}

// ErrAlphaMismatch is returned when merging sketches built with different
// relative accuracies; their bucket grids are incompatible.
var ErrAlphaMismatch = errors.New("sketch: cannot merge sketches with different alpha")

// Merge folds other into s. Both sketches must share the same alpha; the
// merge is lossless — s afterwards equals the sketch of both input
// streams concatenated. other is not modified.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || other.count == 0 {
		return nil
	}
	if math.Abs(other.alpha-s.alpha) > 1e-12 {
		return fmt.Errorf("%w: %v vs %v", ErrAlphaMismatch, s.alpha, other.alpha)
	}
	for i, n := range other.pos {
		s.bump(s.pos, i, n)
	}
	for i, n := range other.neg {
		s.bump(s.neg, i, n)
	}
	s.zero += other.zero
	s.count += other.count
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.collapsed = s.collapsed || other.collapsed
	return nil
}

// Quantile returns the estimate for quantile q in [0, 1]; NaN when the
// sketch is empty. The estimate is within relative error α of the
// empirical q-quantile of the inserted values (see the package comment for
// the exact guarantee and the collapsed-tail caveat).
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// rank is 1-based: the ⌈q·n⌉-th smallest value.
	rank := uint64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}

	// Walk the value axis upward: negative buckets from most negative
	// (largest magnitude index) to least, then zeros, then positives.
	var seen uint64
	for _, i := range sortedIndices(s.neg, true) {
		seen += s.neg[i]
		if seen >= rank {
			return clamp(-s.value(i), s.min, s.max)
		}
	}
	seen += s.zero
	if seen >= rank {
		return 0
	}
	for _, i := range sortedIndices(s.pos, false) {
		seen += s.pos[i]
		if seen >= rank {
			return clamp(s.value(i), s.min, s.max)
		}
	}
	return s.max
}

// clamp bounds an estimate by the observed extremes: the true sample lies
// inside [min, max], and the bucket midpoint never needs to leave it.
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func sortedIndices(m map[int]uint64, descending bool) []int {
	idx := make([]int, 0, len(m))
	for i := range m {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	if descending {
		for l, r := 0, len(idx)-1; l < r; l, r = l+1, r-1 {
			idx[l], idx[r] = idx[r], idx[l]
		}
	}
	return idx
}

// Summary is the wire form of a sketch: what a federation agent ships and
// the federating store reconstructs. Buckets are parallel index/count
// slices sorted by index, so encoding is deterministic and compact.
type Summary struct {
	Alpha     float64  `json:"alpha"`
	Count     uint64   `json:"count"`
	Sum       float64  `json:"sum"`
	Min       float64  `json:"min"`
	Max       float64  `json:"max"`
	Zero      uint64   `json:"zero,omitempty"`
	PosIdx    []int    `json:"posIdx,omitempty"`
	PosCnt    []uint64 `json:"posCnt,omitempty"`
	NegIdx    []int    `json:"negIdx,omitempty"`
	NegCnt    []uint64 `json:"negCnt,omitempty"`
	Collapsed bool     `json:"collapsed,omitempty"`
}

// Export snapshots the sketch into its wire form.
func (s *Sketch) Export() Summary {
	out := Summary{
		Alpha: s.alpha, Count: s.count, Sum: s.sum,
		Min: s.min, Max: s.max, Zero: s.zero, Collapsed: s.collapsed,
	}
	out.PosIdx, out.PosCnt = exportBuckets(s.pos)
	out.NegIdx, out.NegCnt = exportBuckets(s.neg)
	return out
}

func exportBuckets(m map[int]uint64) ([]int, []uint64) {
	if len(m) == 0 {
		return nil, nil
	}
	idx := sortedIndices(m, false)
	cnt := make([]uint64, len(idx))
	for i, b := range idx {
		cnt[i] = m[b]
	}
	return idx, cnt
}

// FromSummary reconstructs a sketch from its wire form, validating the
// bucket slices.
func FromSummary(sum Summary) (*Sketch, error) {
	if !(sum.Alpha > 0 && sum.Alpha < 1) {
		return nil, fmt.Errorf("sketch: bad alpha %v in summary", sum.Alpha)
	}
	if len(sum.PosIdx) != len(sum.PosCnt) || len(sum.NegIdx) != len(sum.NegCnt) {
		return nil, errors.New("sketch: summary bucket slices misaligned")
	}
	s := New(sum.Alpha)
	s.count = sum.Count
	s.sum = sum.Sum
	s.zero = sum.Zero
	s.collapsed = sum.Collapsed
	s.min, s.max = sum.Min, sum.Max
	if sum.Count == 0 {
		s.min, s.max = math.Inf(1), math.Inf(-1)
	}
	var total uint64 = sum.Zero
	for i, b := range sum.PosIdx {
		s.pos[b] = sum.PosCnt[i]
		total += sum.PosCnt[i]
	}
	for i, b := range sum.NegIdx {
		s.neg[b] = sum.NegCnt[i]
		total += sum.NegCnt[i]
	}
	if total != sum.Count {
		return nil, fmt.Errorf("sketch: summary counts inconsistent (%d buckets vs %d total)",
			total, sum.Count)
	}
	return s, nil
}

// MergeSummary folds a wire-form summary directly into s without building
// an intermediate sketch — the federating store's hot ingest path.
func (s *Sketch) MergeSummary(sum Summary) error {
	other, err := FromSummary(sum)
	if err != nil {
		return err
	}
	return s.Merge(other)
}
