package eval

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

func TestBrierAndLogLossPoints(t *testing.T) {
	if got := BrierPoint(0.8, 1); math.Abs(got-0.04) > 1e-15 {
		t.Fatalf("BrierPoint(0.8, 1) = %v", got)
	}
	if got := BrierPoint(0.8, 0); math.Abs(got-0.64) > 1e-15 {
		t.Fatalf("BrierPoint(0.8, 0) = %v", got)
	}
	// A perfect hard prediction scores ~0; a perfect miss is clamped to a
	// large finite penalty, never +Inf.
	if got := LogLossPoint(1, 1); got != -math.Log(1-LogLossClamp) {
		t.Fatalf("LogLossPoint(1, 1) = %v", got)
	}
	miss := LogLossPoint(0, 1)
	if math.IsInf(miss, 0) || miss != -math.Log(LogLossClamp) {
		t.Fatalf("LogLossPoint(0, 1) = %v, want clamped penalty %v", miss, -math.Log(LogLossClamp))
	}
}

func TestHitRateAtK(t *testing.T) {
	scores := []float64{0.9, 0.1, 0.5, 0.3}
	crashes := []float64{4, 1, 3, 2}
	got, err := HitRateAtK(scores, crashes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := (4.0 + 3.0) / 10.0; got != want {
		t.Fatalf("HitRateAtK = %v, want %v", got, want)
	}
	full, err := HitRateAtK(scores, crashes, 4)
	if err != nil || full != 1 {
		t.Fatalf("HitRateAtK full coverage = %v, %v", full, err)
	}
}

// sliceStableOrder is TopKOrder as it was written before the index sort:
// a reflection-based stable sort of int indices, the reference that
// TestTopKOrderMatchesStableSort pins the current ranking to.
func sliceStableOrder(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := scores[idx[a]], scores[idx[b]]
		if sa != sb {
			return sa > sb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// TestTopKOrderMatchesStableSort compares TopKOrder with the stable sort
// it replaced on NaN-free surfaces shaped like hotspot risk: many exact
// ties (saturated cells at 1, empty cells at 0, a few repeated levels)
// among distinct values, and signed zeros, which compare equal.
func TestTopKOrderMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 23))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(1100)
		scores := make([]float64, n)
		for i := range scores {
			switch r.IntN(6) {
			case 0:
				scores[i] = 1
			case 1:
				scores[i] = 0
			case 2:
				scores[i] = math.Copysign(0, -1)
			case 3:
				scores[i] = float64(r.IntN(4)) / 4
			default:
				scores[i] = r.Float64()
			}
		}
		got, want := TopKOrder(scores), sliceStableOrder(scores)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("trial %d (n=%d): rank %d is cell %d, stable sort ranks cell %d",
					trial, n, i, got[i], want[i])
			}
		}
	}
}

// TestTopKOrderNaNLast pins where a NaN score ranks: after every number,
// NaNs among themselves by index.
func TestTopKOrderNaNLast(t *testing.T) {
	nan := math.NaN()
	got := TopKOrder([]float64{nan, 0.2, nan, 0.9, 0.2})
	if want := []int32{3, 1, 4, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("TopKOrder with NaNs = %v, want %v", got, want)
	}
}

func TestHitRateTiesDeterministic(t *testing.T) {
	// All scores equal: the top-k set is the first k cells by index.
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	crashes := []float64{1, 2, 3, 4}
	got, err := HitRateAtK(scores, crashes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3.0 / 10.0; got != want {
		t.Fatalf("tie-broken HitRateAtK = %v, want %v", got, want)
	}
}

func TestHitRateErrors(t *testing.T) {
	if _, err := HitRateAtK(nil, nil, 1); err == nil {
		t.Error("empty input should error")
	}
	if _, err := HitRateAtK([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := HitRateAtK([]float64{math.NaN()}, []float64{1}, 1); err == nil {
		t.Error("NaN score should error")
	}
	if _, err := HitRateAtK([]float64{1}, []float64{-1}, 1); err == nil {
		t.Error("negative crash count should error")
	}
	if _, err := HitRateAtK([]float64{1, 2}, []float64{0, 0}, 1); err == nil {
		t.Error("zero total crashes should error")
	}
	if _, err := HitRateAtK([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := HitRateAtK([]float64{1}, []float64{1}, 2); err == nil {
		t.Error("k beyond cells should error")
	}
}
