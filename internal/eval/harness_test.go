package eval

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"roadcrash/internal/data"
	"roadcrash/internal/rng"
)

// thresholdModel is a trivial classifier on feature column 0.
type thresholdModel struct{ cut float64 }

func (m thresholdModel) PredictProb(row []float64) float64 {
	if row[0] >= m.cut {
		return 0.9
	}
	return 0.1
}

// meanModel predicts the training-set target mean.
type meanModel struct{ mean float64 }

func (m meanModel) Predict(row []float64) float64 { return m.mean }

func harnessData(n int) *data.Dataset {
	b := data.NewBuilder("h").Interval("x").Binary("y")
	for i := 0; i < n; i++ {
		y := 0.0
		if i%2 == 0 {
			y = 1
		}
		// x separates the classes perfectly at x >= 100.
		x := float64(i % 50)
		if y == 1 {
			x += 100
		}
		b.Row(x, y)
	}
	return b.Build()
}

func TestEvaluateSplit(t *testing.T) {
	ds := harnessData(200)
	target := ds.MustAttrIndex("y")
	train, valid, err := ds.StratifiedSplit(rng.New(1), 0.7, target)
	if err != nil {
		t.Fatal(err)
	}
	trainer := func(tr *data.Dataset, tgt int) (Classifier, error) {
		return thresholdModel{cut: 100}, nil
	}
	res, err := EvaluateSplit(trainer, train, valid, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion.Accuracy() != 1 {
		t.Fatalf("perfect separator accuracy = %v", res.Confusion.Accuracy())
	}
	if res.AUC != 1 {
		t.Fatalf("AUC = %v", res.AUC)
	}
}

func TestEvaluateSplitSkipsMissingTargets(t *testing.T) {
	b := data.NewBuilder("m").Interval("x").Binary("y")
	b.Row(200, 1).Row(0, 0).Row(50, data.Missing)
	ds := b.Build()
	trainer := func(tr *data.Dataset, tgt int) (Classifier, error) {
		return thresholdModel{cut: 100}, nil
	}
	res, err := EvaluateSplit(trainer, ds, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion.N() != 2 {
		t.Fatalf("N = %d, want 2 (missing target skipped)", res.Confusion.N())
	}
}

func TestEvaluateSplitTrainerError(t *testing.T) {
	ds := harnessData(10)
	boom := errors.New("boom")
	trainer := func(tr *data.Dataset, tgt int) (Classifier, error) { return nil, boom }
	if _, err := EvaluateSplit(trainer, ds, ds, 1); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestEvaluateSplitAllMissing(t *testing.T) {
	b := data.NewBuilder("am").Interval("x").Binary("y")
	b.Row(1, data.Missing)
	ds := b.Build()
	trainer := func(tr *data.Dataset, tgt int) (Classifier, error) {
		return thresholdModel{}, nil
	}
	if _, err := EvaluateSplit(trainer, ds, ds, 1); err == nil {
		t.Fatal("all-missing validation should error")
	}
}

func TestEvaluateRegressionSplit(t *testing.T) {
	b := data.NewBuilder("r").Interval("x").Interval("y")
	for i := 0; i < 50; i++ {
		b.Row(float64(i), float64(i)*2)
	}
	ds := b.Build()
	target := ds.MustAttrIndex("y")
	trainer := func(tr *data.Dataset, tgt int) (Regressor, error) {
		col := tr.Col(tgt)
		sum := 0.0
		for _, v := range col {
			sum += v
		}
		return meanModel{mean: sum / float64(len(col))}, nil
	}
	r2, actual, predicted, err := EvaluateRegressionSplit(trainer, ds, ds, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(actual) != 50 || len(predicted) != 50 {
		t.Fatalf("series lengths %d/%d", len(actual), len(predicted))
	}
	// The mean model explains none of the variance.
	if math.Abs(r2) > 1e-9 {
		t.Fatalf("mean model R² = %v, want 0", r2)
	}
}

func TestEvaluateRegressionSplitErrors(t *testing.T) {
	b := data.NewBuilder("re").Interval("x").Interval("y")
	b.Row(1, data.Missing)
	ds := b.Build()
	boom := errors.New("boom")
	failing := func(tr *data.Dataset, tgt int) (Regressor, error) { return nil, boom }
	if _, _, _, err := EvaluateRegressionSplit(failing, ds, ds, 1); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	mean := func(tr *data.Dataset, tgt int) (Regressor, error) { return meanModel{}, nil }
	if r2, _, _, err := EvaluateRegressionSplit(mean, ds, ds, 1); err == nil || !math.IsNaN(r2) {
		t.Fatalf("all-missing validation = %v, %v; want NaN and an error", r2, err)
	}
}

func TestCrossValidate(t *testing.T) {
	ds := harnessData(100)
	target := ds.MustAttrIndex("y")
	trainer := func(tr *data.Dataset, tgt int) (Classifier, error) {
		return thresholdModel{cut: 100}, nil
	}
	res, err := CrossValidate(trainer, ds, target, 10, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion.N() != 100 {
		t.Fatalf("CV pooled N = %d, want 100", res.Confusion.N())
	}
	if res.Confusion.Accuracy() != 1 {
		t.Fatalf("CV accuracy = %v", res.Confusion.Accuracy())
	}
}

// TestCrossValidateDeterministicAcrossWorkers asserts pooled CV results are
// bit-identical for every worker count: the fold assignment is drawn before
// the fan-out and fold outputs are pooled in fold order.
func TestCrossValidateDeterministicAcrossWorkers(t *testing.T) {
	ds := harnessData(600)
	target := ds.MustAttrIndex("y")
	trainer := func(tr *data.Dataset, tgt int) (Classifier, error) {
		return thresholdModel{cut: 100}, nil
	}
	ref, err := CrossValidateWorkers(trainer, ds, target, 10, rng.New(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := CrossValidateWorkers(trainer, ds, target, 10, rng.New(7), workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Confusion != ref.Confusion {
			t.Fatalf("workers=%d: confusion %+v vs %+v", workers, got.Confusion, ref.Confusion)
		}
		if got.AUC != ref.AUC {
			t.Fatalf("workers=%d: AUC %v vs %v", workers, got.AUC, ref.AUC)
		}
		if !reflect.DeepEqual(got.Scores, ref.Scores) || !reflect.DeepEqual(got.Labels, ref.Labels) {
			t.Fatalf("workers=%d: pooled scores/labels differ", workers)
		}
	}
}

// TestEvaluateSplitSurfacesModel checks the trained model rides along in the
// result so callers can read structure without re-training.
func TestEvaluateSplitSurfacesModel(t *testing.T) {
	ds := harnessData(100)
	target := ds.MustAttrIndex("y")
	want := thresholdModel{cut: 100}
	trainer := func(tr *data.Dataset, tgt int) (Classifier, error) { return want, nil }
	res, err := EvaluateSplit(trainer, ds, ds, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != want {
		t.Fatalf("Model = %v, want the trained classifier", res.Model)
	}
}

// TestCrossValidateFoldError checks a failing fold stops the run with an
// error that names the fold and wraps the trainer's.
func TestCrossValidateFoldError(t *testing.T) {
	ds := harnessData(20)
	boom := errors.New("boom")
	trainer := func(tr *data.Dataset, tgt int) (Classifier, error) { return nil, boom }
	_, err := CrossValidateWorkers(trainer, ds, 1, 5, rng.New(3), 2)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "fold 0") {
		t.Fatalf("err = %v, want fold 0 wrapping boom", err)
	}
}

// TestCrossValidateSingleClassAUC checks pooled folds with one class give
// an AUC of NaN rather than an error.
func TestCrossValidateSingleClassAUC(t *testing.T) {
	b := data.NewBuilder("one").Interval("x").Binary("y")
	for i := 0; i < 20; i++ {
		b.Row(float64(i), 1)
	}
	trainer := func(tr *data.Dataset, tgt int) (Classifier, error) { return thresholdModel{cut: 5}, nil }
	res, err := CrossValidateWorkers(trainer, b.Build(), 1, 4, rng.New(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion.N() != 20 || !math.IsNaN(res.AUC) {
		t.Fatalf("N = %d AUC = %v, want 20 and NaN", res.Confusion.N(), res.AUC)
	}
}

func TestCrossValidateBadK(t *testing.T) {
	ds := harnessData(10)
	trainer := func(tr *data.Dataset, tgt int) (Classifier, error) {
		return thresholdModel{}, nil
	}
	if _, err := CrossValidate(trainer, ds, 1, 1, rng.New(1)); err == nil {
		t.Fatal("k=1 should error")
	}
}
