package eval

import (
	"math"
	"strings"
	"testing"
)

// Edge-case contracts for the assessment statistics: degenerate inputs
// error crisply (ROC) or report NaN (Confusion ratios), never a silent
// zero that could read as a real score.

func TestROCEmptyInputErrors(t *testing.T) {
	if _, err := ROC(nil, nil); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("ROC(nil, nil) err = %v, want empty-input error", err)
	}
	if _, err := AUCFromScores(nil, nil); err == nil {
		t.Fatal("AUCFromScores on empty input should error")
	}
}

func TestROCNaNScoreErrors(t *testing.T) {
	scores := []float64{0.2, math.NaN(), 0.9}
	labels := []bool{false, true, true}
	if _, err := ROC(scores, labels); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("ROC with NaN score err = %v, want NaN error", err)
	}
}

func TestROCOneClassErrors(t *testing.T) {
	for _, label := range []bool{true, false} {
		scores := []float64{0.1, 0.5, 0.9}
		labels := []bool{label, label, label}
		if _, err := ROC(scores, labels); err == nil {
			t.Fatalf("all-%v labels should error", label)
		}
	}
}

func TestAUCDegenerateCurveIsNaN(t *testing.T) {
	if got := AUC(nil); !math.IsNaN(got) {
		t.Fatalf("AUC(nil) = %v, want NaN", got)
	}
	if got := AUC([]ROCPoint{{FPR: 0, TPR: 0}}); !math.IsNaN(got) {
		t.Fatalf("AUC(single point) = %v, want NaN", got)
	}
}

// TestConfusionOneClassColumns pins the one-class behaviors: ratios whose
// denominator is empty are NaN, and the derived statistics propagate or
// bridge them as documented rather than flattening to 0.
func TestConfusionOneClassColumns(t *testing.T) {
	// Only positives observed, all predicted positive.
	posOnly := Confusion{TP: 5}
	if got := posOnly.Specificity(); !math.IsNaN(got) {
		t.Fatalf("Specificity with no negatives = %v, want NaN", got)
	}
	if got := posOnly.NPV(); !math.IsNaN(got) {
		t.Fatalf("NPV with no negative predictions = %v, want NaN", got)
	}
	// MCPV bridges to the defined side instead of reporting 0.
	if got := posOnly.MCPV(); got != 1 {
		t.Fatalf("MCPV one-sided = %v, want 1", got)
	}
	// Perfect expected agreement: Kappa is 0 by convention, not NaN/Inf.
	if got := posOnly.Kappa(); got != 0 {
		t.Fatalf("Kappa with Ie=1 = %v, want 0", got)
	}

	// Only negatives observed, all predicted negative.
	negOnly := Confusion{TN: 7}
	if got := negOnly.Sensitivity(); !math.IsNaN(got) {
		t.Fatalf("Sensitivity with no positives = %v, want NaN", got)
	}
	if got := negOnly.PPV(); !math.IsNaN(got) {
		t.Fatalf("PPV with no positive predictions = %v, want NaN", got)
	}
	if got := negOnly.MCPV(); got != 1 {
		t.Fatalf("MCPV one-sided = %v, want 1", got)
	}

	// The weighted measures give the absent class zero weight instead of
	// letting its NaN precision or recall poison the average.
	for name, c := range map[string]Confusion{"positives only": posOnly, "negatives only": negOnly} {
		if got := c.WeightedPrecision(); got != 1 {
			t.Fatalf("%s: WeightedPrecision = %v, want 1", name, got)
		}
		if got := c.WeightedRecall(); got != 1 {
			t.Fatalf("%s: WeightedRecall = %v, want 1", name, got)
		}
	}
}

func TestRSquaredNaNInputs(t *testing.T) {
	if got := RSquared([]float64{1, 2}, []float64{1}); !math.IsNaN(got) {
		t.Fatalf("mismatched lengths = %v, want NaN", got)
	}
	if got := RSquared(nil, nil); !math.IsNaN(got) {
		t.Fatalf("empty input = %v, want NaN", got)
	}
	if got := RSquared([]float64{3, 3, 3}, []float64{1, 2, 3}); !math.IsNaN(got) {
		t.Fatalf("constant actuals = %v, want NaN", got)
	}
}
