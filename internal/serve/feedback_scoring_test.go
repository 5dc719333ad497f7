package serve

import (
	"math"
	"testing"

	"roadcrash/internal/eval"
	"roadcrash/internal/rng"
)

// TestFeedbackScoringMatchesInlineFormulas pins the Brier/log-loss dedupe:
// gradeLocked now delegates to eval.BrierPoint/eval.LogLossPoint, and this
// sweep proves those produce bit-identical float64 values to the inline
// formulas the feedback loop previously computed — so every rolling-window
// mean, histogram bucket and drift-alarm threshold is provably unchanged.
func TestFeedbackScoringMatchesInlineFormulas(t *testing.T) {
	const inlineClamp = 1e-9 // the constant formerly defined in this package
	if inlineClamp != eval.LogLossClamp {
		t.Fatalf("eval.LogLossClamp = %v, feedback loop was built on %v", eval.LogLossClamp, inlineClamp)
	}
	check := func(risk, y float64) {
		t.Helper()
		wantBrier := (risk - y) * (risk - y)
		p := math.Min(1-inlineClamp, math.Max(inlineClamp, risk))
		wantLogloss := -(y*math.Log(p) + (1-y)*math.Log(1-p))
		if got := eval.BrierPoint(risk, y); math.Float64bits(got) != math.Float64bits(wantBrier) {
			t.Fatalf("BrierPoint(%v, %v) = %v, inline formula gives %v", risk, y, got, wantBrier)
		}
		if got := eval.LogLossPoint(risk, y); math.Float64bits(got) != math.Float64bits(wantLogloss) {
			t.Fatalf("LogLossPoint(%v, %v) = %v, inline formula gives %v", risk, y, got, wantLogloss)
		}
	}
	// Boundary scores, including the hard 0/1 predictions the clamp exists
	// for, against both outcomes.
	for _, risk := range []float64{0, inlineClamp, 0.25, 0.5, 0.75, 1 - inlineClamp, 1} {
		check(risk, 0)
		check(risk, 1)
	}
	// A dense random sweep over the unit interval.
	r := rng.New(20110322)
	for i := 0; i < 10000; i++ {
		risk := r.Float64()
		y := float64(r.Intn(2))
		check(risk, y)
	}
}
