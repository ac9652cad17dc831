package sketch

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile returns the empirical q-quantile (rank ⌈q·n⌉, 1-based) of
// sorted — the definition the sketch's error model is stated against.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// assertWithinAlpha fails unless est is within relative error alpha of the
// exact q-quantile of samples.
func assertWithinAlpha(t *testing.T, samples []float64, est, q, alpha float64) {
	t.Helper()
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	exact := exactQuantile(sorted, q)
	bound := alpha * math.Abs(exact)
	if bound == 0 {
		bound = 1e-12
	}
	if math.Abs(est-exact) > bound {
		t.Fatalf("q=%v: estimate %v vs exact %v — off by %v, bound %v",
			q, est, exact, math.Abs(est-exact), bound)
	}
}

var testQuantiles = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

func generators(rng *rand.Rand) map[string]func() float64 {
	return map[string]func() float64{
		"uniform":   func() float64 { return 1 + 99*rng.Float64() },
		"lognormal": func() float64 { return math.Exp(3 + 1.2*rng.NormFloat64()) },
		"bimodal": func() float64 {
			if rng.Float64() < 0.8 {
				return 20 + 5*rng.NormFloat64()
			}
			return 200 + 20*rng.NormFloat64()
		},
		"heavytail": func() float64 { return 10 / math.Pow(rng.Float64(), 0.7) },
	}
}

func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, gen := range generators(rng) {
		t.Run(name, func(t *testing.T) {
			s := New(DefaultAlpha)
			samples := make([]float64, 0, 20000)
			for i := 0; i < 20000; i++ {
				v := gen()
				samples = append(samples, v)
				s.Add(v)
			}
			for _, q := range testQuantiles {
				assertWithinAlpha(t, samples, s.Quantile(q), q, DefaultAlpha)
			}
		})
	}
}

// TestMergeMatchesConcatenation is the federation property: N sketches
// built from disjoint streams, merged, must answer quantiles within the
// alpha bound of the exact quantiles over the concatenated samples — and
// must be identical to the single sketch built from the full stream.
func TestMergeMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gens := generators(rng)
	// Each "replica" draws from a different distribution so the merged
	// shape is something none of the parts saw.
	parts := []string{"uniform", "lognormal", "bimodal", "heavytail"}

	merged := New(DefaultAlpha)
	direct := New(DefaultAlpha)
	var all []float64
	for _, name := range parts {
		part := New(DefaultAlpha)
		for i := 0; i < 5000; i++ {
			v := gens[name]()
			part.Add(v)
			direct.Add(v)
			all = append(all, v)
		}
		if err := merged.Merge(part); err != nil {
			t.Fatalf("merge %s: %v", name, err)
		}
	}
	if merged.Count() != uint64(len(all)) {
		t.Fatalf("merged count %d, want %d", merged.Count(), len(all))
	}
	if math.Abs(merged.Sum()-direct.Sum()) > 1e-6*math.Abs(direct.Sum()) {
		t.Fatalf("merged sum %v, direct sum %v", merged.Sum(), direct.Sum())
	}
	for _, q := range testQuantiles {
		assertWithinAlpha(t, all, merged.Quantile(q), q, DefaultAlpha)
		// Merge must be lossless: identical answer to the direct sketch.
		if m, d := merged.Quantile(q), direct.Quantile(q); m != d {
			t.Fatalf("q=%v: merged %v != direct %v (merge not lossless)", q, m, d)
		}
	}
}

func TestMergeAlphaMismatch(t *testing.T) {
	a := New(0.01)
	b := New(0.02)
	b.Add(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging sketches with different alpha must fail")
	}
	// Merging an empty sketch is a no-op regardless of alpha.
	if err := a.Merge(New(0.5)); err != nil {
		t.Fatalf("merging empty sketch: %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("merging nil sketch: %v", err)
	}
}

func TestSummaryRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(DefaultAlpha)
	var samples []float64
	for i := 0; i < 10000; i++ {
		v := math.Exp(2 + rng.NormFloat64())
		samples = append(samples, v)
		s.Add(v)
	}
	s.Add(0) // exercise the zero bucket
	s.AddN(-5.5, 3)
	samples = append(samples, 0, -5.5, -5.5, -5.5)

	raw, err := json.Marshal(s.Export())
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	back, err := FromSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != s.Count() || back.Sum() != s.Sum() ||
		back.Min() != s.Min() || back.Max() != s.Max() {
		t.Fatalf("moments changed over roundtrip: %+v vs %+v", back.Export(), s.Export())
	}
	for _, q := range testQuantiles {
		if a, b := s.Quantile(q), back.Quantile(q); a != b {
			t.Fatalf("q=%v changed over roundtrip: %v vs %v", q, a, b)
		}
		assertWithinAlpha(t, samples, back.Quantile(q), q, DefaultAlpha)
	}
}

func TestFromSummaryRejectsBadWire(t *testing.T) {
	cases := []Summary{
		{Alpha: 0, Count: 1},                                           // bad alpha
		{Alpha: 2, Count: 1},                                           // bad alpha
		{Alpha: 0.01, PosIdx: []int{1}},                                // misaligned slices
		{Alpha: 0.01, Count: 5, Zero: 1},                               // counts inconsistent
		{Alpha: 0.01, Count: 1, PosIdx: []int{3}, PosCnt: []uint64{2}}, // inconsistent
	}
	for i, c := range cases {
		if _, err := FromSummary(c); err == nil {
			t.Errorf("case %d: FromSummary accepted invalid summary %+v", i, c)
		}
	}
}

// TestCollapseBoundsMemory drives a huge dynamic range through a tiny
// sketch and checks the bucket bound holds while upper quantiles keep
// their guarantee.
func TestCollapseBoundsMemory(t *testing.T) {
	// At α = 1% a bucket covers ~2% of value, ≈115 buckets per decade;
	// 256 buckets keep ≈2.2 decades, so a 12-decade log-uniform stream
	// forces collapse while quantiles in the top two decades (q ≥ 0.85
	// here) keep their guarantee.
	const maxB = 256
	s := New(DefaultAlpha, WithMaxBuckets(maxB))
	rng := rand.New(rand.NewSource(4))
	var samples []float64
	for i := 0; i < 50000; i++ {
		v := math.Pow(10, -6+12*rng.Float64())
		samples = append(samples, v)
		s.Add(v)
	}
	if len(s.pos) > maxB {
		t.Fatalf("bucket bound violated: %d > %d", len(s.pos), maxB)
	}
	if !s.Collapsed() {
		t.Fatal("expected collapse on 12-decade range with 64 buckets")
	}
	if s.Count() != uint64(len(samples)) {
		t.Fatalf("collapse lost counts: %d vs %d", s.Count(), len(samples))
	}
	// Upper quantiles live far above the collapsed low tail.
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999} {
		assertWithinAlpha(t, samples, s.Quantile(q), q, DefaultAlpha)
	}
}

func TestEmptyAndEdgeQuantiles(t *testing.T) {
	s := New(DefaultAlpha)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty sketch must return NaN")
	}
	s.Add(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 42 {
			t.Fatalf("single-value sketch q=%v: got %v", q, got)
		}
	}
	if s.Min() != 42 || s.Max() != 42 || s.Count() != 1 || s.Sum() != 42 {
		t.Fatal("single-value moments wrong")
	}
}

func TestNegativeValues(t *testing.T) {
	s := New(DefaultAlpha)
	var samples []float64
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		v := rng.NormFloat64() * 50 // mixed signs around zero
		samples = append(samples, v)
		s.Add(v)
	}
	for _, q := range testQuantiles {
		assertWithinAlpha(t, samples, s.Quantile(q), q, DefaultAlpha)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(DefaultAlpha)
	rng := rand.New(rand.NewSource(6))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = math.Exp(3 + rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vals[i&1023])
	}
}

func BenchmarkMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	parts := make([]*Sketch, 16)
	for i := range parts {
		parts[i] = New(DefaultAlpha)
		for j := 0; j < 10000; j++ {
			parts[i].Add(math.Exp(3 + rng.NormFloat64()))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := New(DefaultAlpha)
		for _, p := range parts {
			if err := dst.Merge(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
