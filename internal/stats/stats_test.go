package stats

import (
	"math"
	"testing"
)

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	almost(t, "CDF(0, 10)", StudentTCDF(0, 10), 0.5, 1e-12)
	almost(t, "CDF(1.812, 10)", StudentTCDF(1.812, 10), 0.95, 1e-3)
	almost(t, "CDF(2.228, 10)", StudentTCDF(2.228, 10), 0.975, 1e-3)
	almost(t, "CDF(-2.228, 10)", StudentTCDF(-2.228, 10), 0.025, 1e-3)
	almost(t, "CDF(1.645, 1e6)", StudentTCDF(1.645, 1e6), 0.95, 1e-3) // ≈ normal
	almost(t, "CDF(+inf)", StudentTCDF(math.Inf(1), 5), 1, 0)
	almost(t, "CDF(-inf)", StudentTCDF(math.Inf(-1), 5), 0, 0)
}

func TestRegIncBetaEdges(t *testing.T) {
	almost(t, "I_0", RegIncBeta(2, 3, 0), 0, 0)
	almost(t, "I_1", RegIncBeta(2, 3, 1), 1, 0)
	// I_x(1,1) = x (uniform distribution).
	almost(t, "I_.3(1,1)", RegIncBeta(1, 1, 0.3), 0.3, 1e-12)
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	x, a, b := 0.37, 2.5, 4.0
	almost(t, "symmetry", RegIncBeta(a, b, x), 1-RegIncBeta(b, a, 1-x), 1e-12)
}

func TestWelchKnownExample(t *testing.T) {
	// Two samples with clearly different means.
	a := []float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4}
	b := []float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5, 22.5}
	n1, m1, v1 := summarize(a)
	n2, m2, v2 := summarize(b)
	res, err := Welch(n1, m1, v1, n2, m2, v2)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-checked against an independent Welch computation.
	almost(t, "t", res.T, -2.7219, 0.001)
	almost(t, "df", res.DF, 27.897, 0.01)
	if res.P < 0.95 {
		t.Errorf("one-sided P(mean1>mean2) = %v, want > 0.95 (mean1 is smaller)", res.P)
	}
}

func TestWelchDegenerate(t *testing.T) {
	if _, err := Welch(1, 0, 0, 5, 0, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Welch(5, 0, -1, 5, 0, 1); err == nil {
		t.Error("negative variance accepted")
	}
	res, err := Welch(5, 3, 0, 5, 3, 0)
	if err != nil || res.P != 0.5 {
		t.Errorf("equal constants: %+v, %v; want P=0.5", res, err)
	}
	res, _ = Welch(5, 4, 0, 5, 3, 0)
	if res.P != 0 {
		t.Errorf("larger constant mean: P = %v, want 0", res.P)
	}
}

func summarize(xs []float64) (int, float64, float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	return len(xs), mean, m2 / float64(len(xs)-1)
}

func TestSPRTConcludesDegraded(t *testing.T) {
	s, err := NewSPRT(0.01, 0.10, 0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// 20% failure batches: strong evidence for H1 (degraded).
	var d SPRTDecision
	batches := 0
	for d = s.Decision(); d == Undecided && batches < 100; batches++ {
		d = s.Observe(2, 10)
	}
	if d != AcceptH1 {
		t.Fatalf("decision = %v after %d batches (llr %v)", d, batches, s.LLR())
	}
	if batches > 20 {
		t.Errorf("took %d batches to detect 20%% failures, want early conclusion", batches)
	}
	// Decision is sticky.
	if got := s.Observe(0, 1000); got != AcceptH1 {
		t.Errorf("decision changed after conclusion: %v", got)
	}
}

func TestSPRTConcludesHealthy(t *testing.T) {
	s, _ := NewSPRT(0.01, 0.10, 0.05, 0.05)
	var d SPRTDecision
	batches := 0
	for d = s.Decision(); d == Undecided && batches < 100; batches++ {
		d = s.Observe(0, 20) // zero failures
	}
	if d != AcceptH0 {
		t.Fatalf("decision = %v after %d batches (llr %v)", d, batches, s.LLR())
	}
	if batches > 10 {
		t.Errorf("took %d zero-failure batches to accept H0, want early conclusion", batches)
	}
}

func TestSPRTReset(t *testing.T) {
	s, _ := NewSPRT(0.01, 0.10, 0.05, 0.05)
	for s.Observe(5, 10) == Undecided {
	}
	s.Reset()
	if s.Decision() != Undecided || s.LLR() != 0 {
		t.Errorf("reset did not clear state: %v, llr %v", s.Decision(), s.LLR())
	}
	f, n := s.Totals()
	if f != 0 || n != 0 {
		t.Errorf("totals after reset = %d/%d", f, n)
	}
}

func TestSPRTValidation(t *testing.T) {
	for _, c := range [][4]float64{
		{0.1, 0.1, 0.05, 0.05}, // p0 == p1
		{0.2, 0.1, 0.05, 0.05}, // p0 > p1
		{0, 0.1, 0.05, 0.05},   // p0 == 0
		{0.01, 1, 0.05, 0.05},  // p1 == 1
		{0.01, 0.1, 0, 0.05},   // α == 0
		{0.01, 0.1, 0.05, 1},   // β == 1
	} {
		if _, err := NewSPRT(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("NewSPRT(%v) accepted", c)
		}
	}
}
