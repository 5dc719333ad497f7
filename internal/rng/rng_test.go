package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsIndependent(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided %d times in 1000 draws", same)
	}
}

func TestSplitIndependent(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]int)
	for i := 0; i < 60000; i++ {
		v := r.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn(6) out of range: %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 6; v++ {
		if seen[v] < 8000 {
			t.Fatalf("value %d badly underrepresented: %d/60000", v, seen[v])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormalShiftScale(t *testing.T) {
	r := New(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Normal(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal(10,2) mean = %v", mean)
	}
}

func TestTruncNormalRespectsBounds(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		x := r.TruncNormal(0.5, 1.0, 0.2, 0.9)
		if x < 0.2 || x > 0.9 {
			t.Fatalf("TruncNormal escaped bounds: %v", x)
		}
	}
}

func TestTruncNormalZeroSigma(t *testing.T) {
	r := New(20)
	if got := r.TruncNormal(5, 0, 0, 1); got != 1 {
		t.Fatalf("TruncNormal clamp = %v, want 1", got)
	}
	if got := r.TruncNormal(-5, 0, 0, 1); got != 0 {
		t.Fatalf("TruncNormal clamp = %v, want 0", got)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(29)
	for _, tc := range []struct{ shape, scale float64 }{{0.5, 1}, {2, 3}, {9, 0.5}} {
		const n = 100000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := r.Gamma(tc.shape, tc.scale)
			if x < 0 {
				t.Fatalf("negative gamma deviate: %v", x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		wantMean := tc.shape * tc.scale
		wantVar := tc.shape * tc.scale * tc.scale
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.02 {
			t.Errorf("Gamma(%v,%v) mean = %v, want %v", tc.shape, tc.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+0.05 {
			t.Errorf("Gamma(%v,%v) var = %v, want %v", tc.shape, tc.scale, variance, wantVar)
		}
	}
}

func TestBetaRangeAndMean(t *testing.T) {
	r := New(31)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Beta(2, 5)
		if x < 0 || x > 1 {
			t.Fatalf("Beta out of [0,1]: %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-2.0/7.0) > 0.01 {
		t.Fatalf("Beta(2,5) mean = %v, want %v", mean, 2.0/7.0)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(37)
	for _, lambda := range []float64{0, 0.5, 3, 12, 50, 200} {
		const n = 50000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			k := r.Poisson(lambda)
			if k < 0 {
				t.Fatalf("negative Poisson deviate %d", k)
			}
			x := float64(k)
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		tol := 0.05*lambda + 0.05
		if math.Abs(mean-lambda) > tol {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 3*tol+0.1*lambda {
			t.Errorf("Poisson(%v) variance = %v", lambda, variance)
		}
	}
}

func TestNegBinomialMoments(t *testing.T) {
	r := New(41)
	mu, size := 4.0, 1.5
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		k := float64(r.NegBinomial(mu, size))
		sum += k
		sumSq += k * k
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	wantVar := mu + mu*mu/size
	if math.Abs(mean-mu) > 0.1 {
		t.Errorf("NegBinomial mean = %v, want %v", mean, mu)
	}
	if math.Abs(variance-wantVar) > 0.1*wantVar {
		t.Errorf("NegBinomial variance = %v, want %v", variance, wantVar)
	}
}

func TestNegBinomialZeroMean(t *testing.T) {
	r := New(43)
	if got := r.NegBinomial(0, 2); got != 0 {
		t.Fatalf("NegBinomial(0, 2) = %d, want 0", got)
	}
}

func TestZeroAltered(t *testing.T) {
	r := New(47)
	const n = 100000
	zeros := 0
	for i := 0; i < n; i++ {
		c := r.ZeroAltered(0.4, func() int { return r.Poisson(3) })
		if c == 0 {
			zeros++
		}
	}
	// Positive draws are zero-truncated, so zeros come only from the hurdle.
	if frac := float64(zeros) / n; math.Abs(frac-0.4) > 0.01 {
		t.Fatalf("zero fraction = %v, want ~0.4", frac)
	}
}

func TestZeroAlteredTruncation(t *testing.T) {
	r := New(53)
	for i := 0; i < 10000; i++ {
		// pZero = 0 means the result must always clear the hurdle.
		if c := r.ZeroAltered(0, func() int { return r.Poisson(0.05) }); c < 1 {
			t.Fatalf("zero-truncated draw returned %d", c)
		}
	}
}

func TestChoiceWeighting(t *testing.T) {
	r := New(59)
	counts := make([]int, 3)
	const n = 90000
	for i := 0; i < n; i++ {
		counts[r.Choice([]float64{1, 2, 3})]++
	}
	for i, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Choice weight %d: got %v want %v", i, got, want)
		}
	}
}

func TestChoicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice with zero mass did not panic")
		}
	}()
	New(1).Choice([]float64{0, 0})
}

func TestBoolProbability(t *testing.T) {
	r := New(61)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency = %v", frac)
	}
}

// Property: mul64 must agree with big-integer multiplication. We check via
// the identity (a*b) mod 2^64 == lo.
func TestMul64LowWord(t *testing.T) {
	f := func(a, b uint64) bool {
		_, lo := mul64(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn never escapes its bound for arbitrary positive n.
func TestIntnPropertyBound(t *testing.T) {
	r := New(67)
	f := func(raw uint16) bool {
		n := int(raw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Poisson and NegBinomial deviates are always non-negative.
func TestCountSamplersNonNegative(t *testing.T) {
	r := New(71)
	f := func(m uint8) bool {
		mu := float64(m%40) + 0.1
		return r.Poisson(mu) >= 0 && r.NegBinomial(mu, 1.2) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}

func BenchmarkPoissonSmall(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(3)
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(300)
	}
}

func BenchmarkNegBinomial(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NegBinomial(4, 1.5)
	}
}
