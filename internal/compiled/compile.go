package compiled

import (
	"fmt"

	"roadcrash/internal/mining/bayes"
	"roadcrash/internal/mining/ensemble"
	"roadcrash/internal/mining/m5"
	"roadcrash/internal/mining/tree"
)

// Compile lowers a decoded learner into its compiled evaluation form.
// Every artifact learner kind maps to a ColumnScorer: trees flatten,
// naive Bayes precomputes its log-probability tables, ensembles compile
// their members, and M5 model trees lower to a flat array tree whose
// leaves run columnar dot products. A learner that is already columnar is
// its own compiled form and is returned as it is: logistic models, ZINB
// threshold classifiers (two fused linear predictors scoring
// P(count > t)), neural networks (fused layer loops), the hotspot risk
// surface (a flat per-cell array) and every compiled form, so compiling
// twice is a no-op. Compile is total: a scorer with no compiled form is an
// error, which the artifact loader reports at load.
func Compile(s Scorer) (ColumnScorer, error) {
	switch m := s.(type) {
	case *tree.Tree:
		return m.Compile(), nil
	case *bayes.Model:
		return m.Compile(), nil
	case *ensemble.Bagging:
		return m.Compile(), nil
	case *ensemble.AdaBoost:
		return m.Compile(), nil
	case *m5.Model:
		return m.Compile(), nil
	case ColumnScorer:
		return m, nil
	}
	return nil, fmt.Errorf("compiled: no compiled form for %T", s)
}

// Columnar reports whether the scorer supports columnar batch evaluation,
// returning the ColumnScorer view when it does. Every Compile result does.
func Columnar(s Scorer) (ColumnScorer, bool) {
	cs, ok := s.(ColumnScorer)
	return cs, ok
}
