package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// boundedSample keeps property-test inputs finite and within a range where
// interpolation arithmetic cannot overflow, by folding values into
// [-1e9, 1e9].
func boundedSample(raw []float64) []float64 {
	xs := make([]float64, 0, len(raw))
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		xs = append(xs, math.Mod(v, 1e9))
	}
	return xs
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "mean", Mean(xs), 5, 1e-12)
	approx(t, "variance", Variance(xs), 32.0/7.0, 1e-12)
	approx(t, "stddev", StdDev(xs), math.Sqrt(32.0/7.0), 1e-12)
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of empty should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("variance of singleton should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v,%v)", lo, hi)
	}
	lo, hi = MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("MinMax of empty should be NaN")
	}
}

func TestSkewness(t *testing.T) {
	if s := Skewness([]float64{1, 2, 3, 4, 5}); math.Abs(s) > 1e-12 {
		t.Errorf("symmetric data skewness = %v", s)
	}
	if s := Skewness([]float64{1, 1, 1, 1, 10}); s <= 0 {
		t.Errorf("right-tailed data skewness = %v, want > 0", s)
	}
	if !math.IsNaN(Skewness([]float64{1, 2})) {
		t.Error("skewness of n<3 should be NaN")
	}
	if s := Skewness([]float64{5, 5, 5, 5}); s != 0 {
		t.Errorf("constant data skewness = %v, want 0", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	approx(t, "q0", quantileSorted(xs, 0), 1, 1e-12)
	approx(t, "q1", quantileSorted(xs, 1), 4, 1e-12)
	approx(t, "median", quantileSorted(xs, 0.5), 2.5, 1e-12)
	approx(t, "q25", quantileSorted(xs, 0.25), 1.75, 1e-12)
	approx(t, "singleton", quantileSorted([]float64{7}, 0.3), 7, 0)
}

func TestSummaryDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Summary(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Summary mutated its input")
	}
}

func TestSummary(t *testing.T) {
	s := Summary([]float64{7, 1, 5, 3, 9})
	if s.Min != 1 || s.Max != 9 || s.Median != 5 {
		t.Errorf("summary = %+v", s)
	}
	approx(t, "Q1", s.Q1, 3, 1e-12)
	approx(t, "Q3", s.Q3, 7, 1e-12)
}

func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := boundedSample(raw)
		if len(xs) == 0 {
			return true
		}
		s := Summary(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	approx(t, "perfect corr", Pearson(xs, ys), 1, 1e-12)
	neg := []float64{10, 8, 6, 4, 2}
	approx(t, "perfect anticorr", Pearson(xs, neg), -1, 1e-12)
	if !math.IsNaN(Pearson(xs, []float64{1, 1, 1, 1, 1})) {
		t.Error("constant series correlation should be NaN")
	}
	if !math.IsNaN(Pearson(xs, []float64{1})) {
		t.Error("mismatched lengths should be NaN")
	}
}

// Property: quantile of a sorted sample interpolates within the sample range.
func TestQuantileWithinRange(t *testing.T) {
	f := func(raw []float64, q8 uint8) bool {
		xs := boundedSample(raw)
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		v := quantileSorted(xs, float64(q8)/255)
		return v >= xs[0]-1e-9 && v <= xs[len(xs)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
