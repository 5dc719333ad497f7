package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestConfusionBasics(t *testing.T) {
	c := Confusion{TP: 40, FP: 10, TN: 35, FN: 15}
	approx(t, "accuracy", c.Accuracy(), 0.75, 1e-12)
	approx(t, "misclass", c.Misclassification(), 0.25, 1e-12)
	approx(t, "sensitivity", c.Sensitivity(), 40.0/55.0, 1e-12)
	approx(t, "specificity", c.Specificity(), 35.0/45.0, 1e-12)
	approx(t, "ppv", c.PPV(), 0.8, 1e-12)
	approx(t, "npv", c.NPV(), 0.7, 1e-12)
	approx(t, "mcpv", c.MCPV(), 0.7, 1e-12)
	if c.N() != 100 {
		t.Fatalf("N = %d", c.N())
	}
}

func TestAddAndMerge(t *testing.T) {
	var c Confusion
	c.Add(true, true)
	c.Add(true, false)
	c.Add(false, true)
	c.Add(false, false)
	if c.TP != 1 || c.FN != 1 || c.FP != 1 || c.TN != 1 {
		t.Fatalf("add gave %+v", c)
	}
	c.Merge(Confusion{TP: 9, FP: 9, TN: 9, FN: 9})
	if c.N() != 40 {
		t.Fatalf("merge N = %d", c.N())
	}
}

func TestKappaReference(t *testing.T) {
	// Worked example from Armitage & Berry style texts:
	// TP=20, FN=10, FP=5, TN=15 → Io=0.7, Ie=(25*... compute directly.
	c := Confusion{TP: 20, FN: 10, FP: 5, TN: 15}
	n := 50.0
	io := 35.0 / n
	ie := ((15.0+10)*(15+5) + (20+5)*(20+10)) / (n * n)
	want := (io - ie) / (1 - ie)
	approx(t, "kappa", c.Kappa(), want, 1e-12)
}

func TestKappaPerfectAndChance(t *testing.T) {
	perfect := Confusion{TP: 30, TN: 70}
	approx(t, "kappa perfect", perfect.Kappa(), 1, 1e-12)
	// Predictions independent of truth → kappa ~ 0.
	chance := Confusion{TP: 25, FP: 25, FN: 25, TN: 25}
	approx(t, "kappa chance", chance.Kappa(), 0, 1e-12)
	// All predictions in one class and all labels in one class: Ie=1.
	degenerate := Confusion{TN: 10}
	approx(t, "kappa degenerate", degenerate.Kappa(), 0, 1e-12)
}

func TestEmptyConfusionIsNaN(t *testing.T) {
	var c Confusion
	for name, v := range map[string]float64{
		"accuracy": c.Accuracy(), "sens": c.Sensitivity(), "spec": c.Specificity(),
		"ppv": c.PPV(), "npv": c.NPV(), "mcpv": c.MCPV(), "kappa": c.Kappa(),
		"wp": c.WeightedPrecision(), "wr": c.WeightedRecall(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s on empty matrix = %v, want NaN", name, v)
		}
	}
}

func TestMCPVOneSided(t *testing.T) {
	// No positive predictions at all: PPV undefined, MCPV falls back to NPV.
	c := Confusion{TN: 90, FN: 10}
	approx(t, "mcpv no positives", c.MCPV(), 0.9, 1e-12)
	c2 := Confusion{TP: 90, FP: 10}
	approx(t, "mcpv no negatives", c2.MCPV(), 0.9, 1e-12)
}

// TestImbalanceTrap reproduces the paper's core observation: on a 16576:174
// dataset a majority-class-only model has a superb misclassification rate
// but a useless MCPV and Kappa.
func TestImbalanceTrap(t *testing.T) {
	alwaysNegative := Confusion{TN: 16576, FN: 174}
	if alwaysNegative.Misclassification() > 0.011 {
		t.Fatalf("misclassification = %v, expected deceptively small", alwaysNegative.Misclassification())
	}
	// MCPV sees through it: no positive predictions, NPV ~0.9895 is the cap;
	// compare with a model that actually finds some positives.
	if !math.IsNaN(alwaysNegative.PPV()) {
		t.Fatal("PPV should be undefined with no positive predictions")
	}
	if k := alwaysNegative.Kappa(); k != 0 {
		t.Fatalf("kappa of majority voter = %v, want 0", k)
	}
}

func TestWeightedPrecisionRecall(t *testing.T) {
	c := Confusion{TP: 40, FP: 10, TN: 35, FN: 15}
	wantWP := (55.0/100)*c.PPV() + (45.0/100)*c.NPV()
	approx(t, "weighted precision", c.WeightedPrecision(), wantWP, 1e-12)
	// Weighted recall equals accuracy for binary problems.
	approx(t, "weighted recall", c.WeightedRecall(), c.Accuracy(), 1e-12)
}

func TestConfusionString(t *testing.T) {
	s := Confusion{TP: 1, FP: 2, TN: 3, FN: 4}.String()
	for _, want := range []string{"TP=1", "FP=2", "TN=3", "FN=4", "mcpv"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// Property: every defined ratio statistic stays in [0,1]; kappa stays in
// [-1,1]; MCPV never exceeds either PPV or NPV.
func TestConfusionInvariants(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		if c.N() == 0 {
			return true
		}
		in01 := func(v float64) bool { return math.IsNaN(v) || (v >= -1e-12 && v <= 1+1e-12) }
		if !in01(c.Accuracy()) || !in01(c.Sensitivity()) || !in01(c.Specificity()) ||
			!in01(c.PPV()) || !in01(c.NPV()) || !in01(c.MCPV()) ||
			!in01(c.WeightedPrecision()) || !in01(c.WeightedRecall()) {
			return false
		}
		if k := c.Kappa(); !math.IsNaN(k) && (k < -1-1e-12 || k > 1+1e-12) {
			return false
		}
		m := c.MCPV()
		if !math.IsNaN(m) {
			if p := c.PPV(); !math.IsNaN(p) && m > p+1e-12 {
				return false
			}
			if n := c.NPV(); !math.IsNaN(n) && m > n+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
