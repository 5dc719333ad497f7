package core

import (
	"fmt"
	"math"

	"roadcrash/internal/artifact"
	"roadcrash/internal/data"
	"roadcrash/internal/eval"
	"roadcrash/internal/mining/bayes"
	"roadcrash/internal/mining/ensemble"
	"roadcrash/internal/mining/logit"
	"roadcrash/internal/mining/m5"
	"roadcrash/internal/mining/neural"
	"roadcrash/internal/mining/tree"
	"roadcrash/internal/mining/zinb"
	"roadcrash/internal/rng"
	"roadcrash/internal/roadnet"
)

// ExportOptions selects the model to persist as an artifact.
type ExportOptions struct {
	// Phase selects the base dataset: 1 (crash/no-crash) or 2 (crash only).
	Phase int
	// Threshold is the crash-proneness boundary the target is derived at.
	Threshold int
	// Learner is one of "tree", "regtree", "bayes", "logit", "bagging",
	// "adaboost", "zinb", "m5", "neural"; empty means "tree", the paper's
	// predominant learner.
	Learner string
	// Name overrides the artifact name; empty derives
	// "phase<P>-<learner>-cp<T>".
	Name string
}

// learnerKind maps the CLI learner names onto artifact kinds.
func learnerKind(learner string) (artifact.Kind, error) {
	switch learner {
	case "", "tree":
		return artifact.KindDecisionTree, nil
	case "regtree":
		return artifact.KindRegressionTree, nil
	case "bayes":
		return artifact.KindNaiveBayes, nil
	case "logit":
		return artifact.KindLogistic, nil
	case "bagging":
		return artifact.KindBagging, nil
	case "adaboost":
		return artifact.KindAdaBoost, nil
	case "zinb":
		return artifact.KindZINB, nil
	case "m5":
		return artifact.KindM5, nil
	case "neural":
		return artifact.KindNeural, nil
	}
	return "", fmt.Errorf("core: unknown learner %q (want tree, regtree, bayes, logit, bagging, adaboost, zinb, m5 or neural)", learner)
}

// ExportLearners lists the accepted -learner values.
func ExportLearners() []string {
	return []string{"tree", "regtree", "bayes", "logit", "bagging", "adaboost", "zinb", "m5", "neural"}
}

// ExportArtifact trains the selected learner at one threshold and wraps it
// as a versioned artifact. The assessment metrics come from the paper's
// train/validation method (the same split seed the sweeps use); the
// persisted model is then refit on the full derived dataset, the standard
// train-on-everything deployment step once a threshold has been selected.
func (s *Study) ExportArtifact(opt ExportOptions) (*artifact.Artifact, error) {
	kind, err := learnerKind(opt.Learner)
	if err != nil {
		return nil, err
	}
	var base *data.Dataset
	var phase string
	switch opt.Phase {
	case 1:
		base, phase = s.combined, "phase1"
	case 2:
		base, phase = s.crashOnly, "phase2"
	default:
		return nil, fmt.Errorf("core: export phase must be 1 or 2, got %d", opt.Phase)
	}
	if opt.Threshold < 0 || (opt.Threshold == 0 && opt.Phase != 1) {
		return nil, fmt.Errorf("core: threshold %d invalid for phase %d", opt.Threshold, opt.Phase)
	}
	if kind == artifact.KindZINB && opt.Phase != 1 {
		return nil, fmt.Errorf("core: the zinb count model needs phase 1 — the hurdle is fit on zero-crash segments, which phase 2 drops")
	}
	ds, binCol, numCol, features, err := s.withTargets(base, opt.Threshold)
	if err != nil {
		return nil, err
	}
	neg, pos := ds.ClassCounts(binCol)
	if neg == 0 || pos == 0 {
		return nil, fmt.Errorf("core: threshold %d leaves a single class (%d/%d)", opt.Threshold, neg, pos)
	}
	target, targetCol := TargetAttr, binCol
	switch kind {
	case artifact.KindRegressionTree, artifact.KindM5:
		// Both regress the 0/1 interval target; M5 is still assessed as a
		// classifier (clamped predictions against the same 0/1 values), the
		// treatment SupportingModelSweep gives it.
		target, targetCol = TargetNumAttr, numCol
	case artifact.KindZINB:
		// The hurdle model regresses the raw crash count; the artifact's
		// threshold turns it into the P(count > t) classifier at decode.
		target = roadnet.CrashCountAttr
	}

	trainer, err := s.exportTrainer(kind, features, opt.Threshold)
	if err != nil {
		return nil, err
	}

	// Assess with the paper's train/validation method at the sweep's split
	// seed, so the recorded metrics line up with the Table 3/4 rows.
	r := rng.New(s.splitSeed(phase, opt.Threshold))
	train, valid, err := ds.StratifiedSplit(r, s.Config.TrainFrac, binCol)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	if kind == artifact.KindRegressionTree {
		rtTrainer := func(tr *data.Dataset, tgt int) (eval.Regressor, error) {
			m, err := trainer(tr, tgt)
			if err != nil {
				return nil, err
			}
			return m.(*tree.Tree), nil
		}
		r2, _, _, err := eval.EvaluateRegressionSplit(rtTrainer, train, valid, targetCol)
		if err != nil {
			return nil, fmt.Errorf("core: assessing %s at threshold %d: %w", kind, opt.Threshold, err)
		}
		putMetric(metrics, "r_squared", r2)
	} else {
		ct := func(tr *data.Dataset, tgt int) (eval.Classifier, error) {
			m, err := trainer(tr, tgt)
			if err != nil {
				return nil, err
			}
			return m, nil
		}
		res, err := eval.EvaluateSplit(ct, train, valid, targetCol)
		if err != nil {
			return nil, fmt.Errorf("core: assessing %s at threshold %d: %w", kind, opt.Threshold, err)
		}
		c := res.Confusion
		putMetric(metrics, "mcpv", c.MCPV())
		putMetric(metrics, "npv", c.NPV())
		putMetric(metrics, "ppv", c.PPV())
		putMetric(metrics, "kappa", c.Kappa())
		putMetric(metrics, "misclassification", c.Misclassification())
		putMetric(metrics, "auc", res.AUC)
	}
	metrics["instances"] = float64(ds.Len())
	metrics["prone"] = float64(pos)
	metrics["non_prone"] = float64(neg)

	// Deployment model: refit on the full derived dataset.
	model, err := trainer(ds, targetCol)
	if err != nil {
		return nil, fmt.Errorf("core: training %s at threshold %d: %w", kind, opt.Threshold, err)
	}
	if dt, ok := model.(*tree.Tree); ok {
		metrics["leaves"] = float64(dt.Leaves())
	}
	if mt, ok := model.(*m5.Model); ok {
		metrics["leaves"] = float64(mt.Leaves())
	}

	name := opt.Name
	if name == "" {
		learner := opt.Learner
		if learner == "" {
			learner = "tree"
		}
		name = fmt.Sprintf("phase%d-%s-cp%d", opt.Phase, learner, opt.Threshold)
	}
	return artifact.New(name, kind, model, ds.Attrs(), opt.Threshold, s.Config.Network.Seed, target, metrics)
}

// exportTrainer builds the training closure for one learner kind over the
// study's configured learner settings. threshold only matters to the ZINB
// trainer, whose count model is wrapped as a P(count > threshold)
// classifier.
func (s *Study) exportTrainer(kind artifact.Kind, features []int, threshold int) (func(tr *data.Dataset, tgt int) (artifact.Scorer, error), error) {
	exclude := []string{roadnet.CrashCountAttr, TargetAttr, TargetNumAttr}
	switch kind {
	case artifact.KindDecisionTree:
		cfg := s.Config.Tree
		cfg.Features = features
		return func(tr *data.Dataset, tgt int) (artifact.Scorer, error) {
			return tree.Grow(tr, tgt, cfg)
		}, nil
	case artifact.KindRegressionTree:
		cfg := s.Config.RegTree
		cfg.Features = features
		return func(tr *data.Dataset, tgt int) (artifact.Scorer, error) {
			return tree.GrowRegression(tr, tgt, cfg)
		}, nil
	case artifact.KindNaiveBayes:
		cfg := bayes.DefaultConfig()
		cfg.Features = features
		return func(tr *data.Dataset, tgt int) (artifact.Scorer, error) {
			return bayes.Train(tr, tgt, cfg)
		}, nil
	case artifact.KindLogistic:
		cfg := logit.DefaultConfig()
		cfg.Exclude = exclude
		return func(tr *data.Dataset, tgt int) (artifact.Scorer, error) {
			return logit.Train(tr, tgt, cfg)
		}, nil
	case artifact.KindBagging:
		cfg := ensemble.DefaultBaggingConfig()
		cfg.Tree = s.Config.Tree
		cfg.Tree.Features = features
		cfg.Seed = s.Config.Seed
		return func(tr *data.Dataset, tgt int) (artifact.Scorer, error) {
			return ensemble.TrainBagging(tr, tgt, cfg)
		}, nil
	case artifact.KindAdaBoost:
		cfg := ensemble.DefaultAdaBoostConfig()
		cfg.Tree.Features = features
		cfg.Tree.MinLeaf = s.Config.Tree.MinLeaf
		cfg.Seed = s.Config.Seed
		return func(tr *data.Dataset, tgt int) (artifact.Scorer, error) {
			return ensemble.TrainAdaBoost(tr, tgt, cfg)
		}, nil
	case artifact.KindZINB:
		// The count column is the training target (zinb.Train excludes it
		// from the design itself); the derived binary targets must not leak
		// into the regressors.
		cfg := zinb.DefaultConfig()
		cfg.Exclude = []string{TargetAttr, TargetNumAttr}
		return func(tr *data.Dataset, tgt int) (artifact.Scorer, error) {
			countCol, err := tr.AttrIndex(roadnet.CrashCountAttr)
			if err != nil {
				return nil, err
			}
			m, err := zinb.Train(tr, countCol, cfg)
			if err != nil {
				return nil, err
			}
			return m.Thresholded(threshold), nil
		}, nil
	case artifact.KindM5:
		cfg := m5.DefaultConfig()
		cfg.Tree.Features = features
		cfg.Exclude = exclude
		return func(tr *data.Dataset, tgt int) (artifact.Scorer, error) {
			return m5.Train(tr, tgt, cfg)
		}, nil
	case artifact.KindNeural:
		cfg := neural.DefaultConfig()
		cfg.Exclude = exclude
		cfg.Seed = s.Config.Seed
		return func(tr *data.Dataset, tgt int) (artifact.Scorer, error) {
			return neural.Train(tr, tgt, cfg)
		}, nil
	}
	return nil, fmt.Errorf("core: no trainer for kind %q", kind)
}

// putMetric records m, skipping undefined (NaN) statistics so artifacts
// stay JSON-encodable.
func putMetric(metrics map[string]float64, name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		metrics[name] = v
	}
}
