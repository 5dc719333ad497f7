// Package eval implements the model-assessment toolkit of the paper's
// Table 2: accuracy, misclassification rate, sensitivity/recall,
// specificity, positive and negative predictive values, ROC curves and
// AUC, Cohen's Kappa, the coefficient of determination (R²) for interval
// targets, and the paper's own contribution — the minimum class predictive
// value (MCPV) statistic, min(PPV, NPV), designed to stay honest on the
// extremely unbalanced datasets the threshold sweep produces.
package eval

import (
	"fmt"
	"math"
)

// Confusion is a binary confusion matrix. Fields follow the paper's TP/FP/
// TN/FN notation: positives are "crash prone" instances.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add accumulates a single prediction.
func (c *Confusion) Add(actual, predicted bool) {
	switch {
	case actual && predicted:
		c.TP++
	case actual && !predicted:
		c.FN++
	case !actual && predicted:
		c.FP++
	default:
		c.TN++
	}
}

// Merge accumulates another confusion matrix (e.g. across CV folds).
func (c *Confusion) Merge(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// N returns the total instance count.
func (c Confusion) N() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns (TP+TN)/N — "not suitable with unbalanced datasets".
func (c Confusion) Accuracy() float64 {
	if c.N() == 0 {
		return math.NaN()
	}
	return float64(c.TP+c.TN) / float64(c.N())
}

// Misclassification returns 1 - accuracy.
func (c Confusion) Misclassification() float64 { return 1 - c.Accuracy() }

// Sensitivity returns TP/(TP+FN), a.k.a. recall of the positive class.
func (c Confusion) Sensitivity() float64 {
	if c.TP+c.FN == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Specificity returns TN/(FP+TN).
func (c Confusion) Specificity() float64 {
	if c.FP+c.TN == 0 {
		return math.NaN()
	}
	return float64(c.TN) / float64(c.FP+c.TN)
}

// PPV returns the positive predictive value TP/(TP+FP).
func (c Confusion) PPV() float64 {
	if c.TP+c.FP == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// NPV returns the negative predictive value TN/(TN+FN).
func (c Confusion) NPV() float64 {
	if c.TN+c.FN == 0 {
		return math.NaN()
	}
	return float64(c.TN) / float64(c.TN+c.FN)
}

// MCPV returns the paper's minimum class predictive value, min(PPV, NPV):
// "Our assumption was that the lowest value of one of these values was the
// effective predictive value of the model." When one side is undefined
// (its denominator is empty) the other side is returned; when both are
// undefined the result is NaN.
func (c Confusion) MCPV() float64 {
	ppv, npv := c.PPV(), c.NPV()
	switch {
	case math.IsNaN(ppv):
		return npv
	case math.IsNaN(npv):
		return ppv
	default:
		return math.Min(ppv, npv)
	}
}

// Kappa returns Cohen's Kappa, the chance-corrected agreement used
// alongside MCPV: κ = (Io - Ie) / (1 - Ie) with Io the observed and Ie the
// expected agreement. Returns NaN for an empty matrix; 0 when expected
// agreement is already perfect.
func (c Confusion) Kappa() float64 {
	n := float64(c.N())
	if n == 0 {
		return math.NaN()
	}
	io := float64(c.TP+c.TN) / n
	ie := (float64(c.TN+c.FN)*float64(c.TN+c.FP) + float64(c.TP+c.FP)*float64(c.TP+c.FN)) / (n * n)
	if ie == 1 {
		return 0
	}
	return (io - ie) / (1 - ie)
}

// WeightedPrecision returns the class-prevalence-weighted average of the
// per-class precisions (WEKA's "Weighted Avg. Precision" from Table 5).
func (c Confusion) WeightedPrecision() float64 {
	n := float64(c.N())
	if n == 0 {
		return math.NaN()
	}
	posW := float64(c.TP+c.FN) / n
	negW := float64(c.TN+c.FP) / n
	ppv, npv := c.PPV(), c.NPV()
	if math.IsNaN(ppv) {
		ppv = 0
	}
	if math.IsNaN(npv) {
		npv = 0
	}
	return posW*ppv + negW*npv
}

// WeightedRecall returns the class-prevalence-weighted average of the
// per-class recalls, which equals accuracy for a binary problem.
func (c Confusion) WeightedRecall() float64 {
	n := float64(c.N())
	if n == 0 {
		return math.NaN()
	}
	posW := float64(c.TP+c.FN) / n
	negW := float64(c.TN+c.FP) / n
	sens, spec := c.Sensitivity(), c.Specificity()
	if math.IsNaN(sens) {
		sens = 0
	}
	if math.IsNaN(spec) {
		spec = 0
	}
	return posW*sens + negW*spec
}

// String renders the matrix with its headline statistics.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d acc=%.4f mcpv=%.4f kappa=%.4f",
		c.TP, c.FP, c.TN, c.FN, c.Accuracy(), c.MCPV(), c.Kappa())
}
