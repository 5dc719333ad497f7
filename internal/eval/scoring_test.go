package eval

import (
	"math"
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
